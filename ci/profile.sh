#!/usr/bin/env bash
# Sampling profile of one benchmark workload, bucketed by engine layer:
#
#   bash ci/profile.sh <workload> [seconds]
#
# An LD_PRELOAD shim arms setitimer(ITIMER_PROF) at 1 kHz and records the
# interrupted instruction pointer from each SIGPROF's signal context (the
# kernel tick may cap the effective rate lower). The `bench` binary is built
# with line tables (CARGO_PROFILE_RELEASE_DEBUG=line-tables-only) into its
# own target directory, target/profile-bench, so bench/target and its
# timings are left alone. One
# `bench --workload W --seconds S` run is sampled (S defaults to 15), the
# samples are symbolized with `addr2line -i`, and each sample goes to the
# layer of its innermost inlined frame whose source file names one.
# Prints a Markdown table of samples and shares per bucket. Needs a C
# compiler and binutils' addr2line; x86-64 and aarch64 Linux only. Reports
# only: nothing here gates anything.
set -euo pipefail
workload=${1:?usage: bash ci/profile.sh <workload> [seconds]}
seconds=${2:-15}
cd "$(dirname "$0")/.."
target=target/profile-bench
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

cat > "$tmp/sampler.c" <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 22)
static unsigned long samples[MAX_SAMPLES];
static volatile unsigned long count;

static void on_prof(int sig, siginfo_t *info, void *context) {
    (void)sig;
    (void)info;
    ucontext_t *uc = context;
#if defined(__x86_64__)
    unsigned long pc = uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
    unsigned long pc = uc->uc_mcontext.pc;
#else
#error "unsupported architecture"
#endif
    if (count < MAX_SAMPLES) samples[count++] = pc;
}

/* The load address of the main program: the first object listed. */
static int main_base(struct dl_phdr_info *info, size_t size, void *base) {
    (void)size;
    *(unsigned long *)base = info->dlpi_addr;
    return 1;
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

/* Writes each sample as an offset into the main program's image. */
__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("PROFILE_SAMPLES");
    FILE *out = path ? fopen(path, "w") : NULL;
    if (!out) return;
    unsigned long base = 0;
    dl_iterate_phdr(main_base, &base);
    for (unsigned long i = 0; i < count; i++) fprintf(out, "%lx\n", samples[i] - base);
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$tmp/sampler.so" "$tmp/sampler.c"

CARGO_PROFILE_RELEASE_DEBUG=line-tables-only CARGO_TARGET_DIR="$target" \
  cargo build --release --quiet --manifest-path bench/Cargo.toml --bin bench
bin="$target/release/bench"

PROFILE_SAMPLES="$tmp/samples" LD_PRELOAD="$tmp/sampler.so" \
  "$bin" --workload "$workload" --seconds "$seconds" > /dev/null 2> "$tmp/stderr"
echo "workload $workload: $(grep -o 'passes *[0-9]*' "$tmp/stderr" | head -1)," \
  "$(wc -l < "$tmp/samples") samples"
echo

# Symbolize each distinct address once. With `-a -i -f`, each address heads
# a group of (function, file:line) lines: the first location is the
# innermost one, but the first name is the enclosing symbol's; every later
# pair is a caller and its call site. So the frames, innermost first, are
# the first location, then each later location, and each frame's source
# file names its layer.
sort "$tmp/samples" | uniq -c > "$tmp/counts"
awk '{ print "0x" $2 }' "$tmp/counts" | addr2line -a -i -f -C -e "$bin" > "$tmp/frames"

awk '
  # The layer of a frame at source location `loc` in function `name`, or
  # "" to look further out.
  function layer(loc, name) {
    if (loc ~ /dlb-sim\/src\/calendar\.rs|dlb-common\/src\/slab\.rs/) return "calendar"
    if (loc ~ /dlb-sim\/src\/clock\.rs|dlb-common\/src\/(round|time|config)\.rs/) return "time arithmetic (clock, rounding)"
    if (loc ~ /dlb-sim\/src\/network\.rs/) return "`Network::send`"
    if (loc ~ /dlb-exec\/src\/router\.rs/) return "`OutputRouter::route`"
    if (loc ~ /dlb-exec\/src\/activation\.rs/) return "activation queues"
    if (loc ~ /engine\/termination\.rs/) return name ~ /control/ ? "steal, push and control messages" : "§4 end check"
    if (loc ~ /engine\/(steal|push)\.rs/) return "steal, push and control messages"
    if (loc ~ /engine\/select\.rs/) return "work selection and wake-up"
    if (loc ~ /engine\/flow\.rs/) return "activation processing and delivery"
    if (loc ~ /engine\/(admission|recovery|build)\.rs/) return "admission, recovery, construction"
    if (loc ~ /bench\/src|dlb-(query|storage|core|frontend|traffic)\//) return "compile, render, reference kernel"
    return ""
  }
  function flush(   i, b) {
    if (!addr) return
    b = ""
    for (i = 1; i <= nf && b == ""; i++) b = layer(loc[i], name[i])
    if (b == "") b = symbol ~ /run_loop/ ? "event-loop body with no finer frame" : "other (allocator, libraries, unresolved)"
    total[b] += n[addr]
  }
  FILENAME == ARGV[1] { n[NR] = $1; next }
  /^0x/ { flush(); addr++; nf = 0; row = 0; next }
  {
    row++
    if (row == 1) symbol = $0
    else if (row == 2) { loc[++nf] = $0; name[nf] = "" }
    else if (row % 2 == 1) name[nf + 1] = $0
    else loc[++nf] = $0
  }
  END {
    flush()
    for (b in total) all += total[b]
    print "| bucket | share | samples |"
    print "|---|---|---|"
    cmd = "sort -t \"|\" -k4,4nr"
    for (b in total) printf "| %s | %.1f%% | %d |\n", b, 100 * total[b] / all, total[b] | cmd
    close(cmd)
    printf "| **all** | 100%% | **%d** |\n", all
  }
' "$tmp/counts" "$tmp/frames"
