//! Pins the optimizer's output across query shapes and parameters.
//!
//! Every case generates a small workload, optimizes each query and folds a
//! canonical pre-order rendering of every returned tree (relation id and
//! cardinality of each leaf, cardinality of each join, build side before
//! probe side) into one FNV-1a digest. Any change to which trees are
//! enumerated, how they are ranked or how cardinalities are estimated shows
//! up as a digest mismatch. The digests are part of the contract: a rewrite
//! of the optimizer must reproduce them, not re-pin them.

use dlb_query::{
    CostModel, JoinTree, Optimizer, OptimizerParams, WorkloadGenerator, WorkloadParams,
};
use std::fmt::Write as _;

/// Queries generated per case.
const QUERIES: usize = 3;

/// The `(keep_best, candidates)` combinations of every row, in digest order.
const PARAMS: [(usize, usize); 6] = [(1, 0), (1, 48), (2, 0), (2, 48), (5, 0), (5, 48)];

/// `(relations, scale, workload seed, digests in PARAMS order)`.
const PINS: [(usize, f64, u64, [u64; 6]); 20] = [
    (
        1,
        0.001,
        0xD1B_1996,
        [
            0x9d36e38d2ef284d4,
            0x9d36e38d2ef284d4,
            0x9d36e38d2ef284d4,
            0x9d36e38d2ef284d4,
            0x9d36e38d2ef284d4,
            0x9d36e38d2ef284d4,
        ],
    ),
    (
        1,
        0.001,
        1996,
        [
            0x838f4c7f4a7891e9,
            0x838f4c7f4a7891e9,
            0x838f4c7f4a7891e9,
            0x838f4c7f4a7891e9,
            0x838f4c7f4a7891e9,
            0x838f4c7f4a7891e9,
        ],
    ),
    (
        1,
        1.0,
        0xD1B_1996,
        [
            0x4c650272c09a2c02,
            0x4c650272c09a2c02,
            0x4c650272c09a2c02,
            0x4c650272c09a2c02,
            0x4c650272c09a2c02,
            0x4c650272c09a2c02,
        ],
    ),
    (
        1,
        1.0,
        1996,
        [
            0x2573b4b06dc59197,
            0x2573b4b06dc59197,
            0x2573b4b06dc59197,
            0x2573b4b06dc59197,
            0x2573b4b06dc59197,
            0x2573b4b06dc59197,
        ],
    ),
    (
        2,
        0.001,
        0xD1B_1996,
        [
            0x0479f03a29701157,
            0x0479f03a29701157,
            0x0479f03a29701157,
            0x0479f03a29701157,
            0x0479f03a29701157,
            0x0479f03a29701157,
        ],
    ),
    (
        2,
        0.001,
        1996,
        [
            0x0a732c133914aea4,
            0x0a732c133914aea4,
            0x0a732c133914aea4,
            0x0a732c133914aea4,
            0x0a732c133914aea4,
            0x0a732c133914aea4,
        ],
    ),
    (
        2,
        1.0,
        0xD1B_1996,
        [
            0x1c1fd58e87e57d54,
            0x1c1fd58e87e57d54,
            0x1c1fd58e87e57d54,
            0x1c1fd58e87e57d54,
            0x1c1fd58e87e57d54,
            0x1c1fd58e87e57d54,
        ],
    ),
    (
        2,
        1.0,
        1996,
        [
            0xa2fbaef09a299be3,
            0xa2fbaef09a299be3,
            0xa2fbaef09a299be3,
            0xa2fbaef09a299be3,
            0xa2fbaef09a299be3,
            0xa2fbaef09a299be3,
        ],
    ),
    (
        8,
        0.001,
        0xD1B_1996,
        [
            0xccf5662938975c7f,
            0xbb43b1cf53a9e6e0,
            0xccf5662938975c7f,
            0xab52a7fa47ec90de,
            0xccf5662938975c7f,
            0x39595f74fe287f35,
        ],
    ),
    (
        8,
        0.001,
        1996,
        [
            0x76251baf3d6cda91,
            0xa53666fb8b2dc5ef,
            0x76251baf3d6cda91,
            0x159dfda6468b74bc,
            0x76251baf3d6cda91,
            0xd0ece465e64586d2,
        ],
    ),
    (
        8,
        1.0,
        0xD1B_1996,
        [
            0x676bd647c9ec3039,
            0xd9cdb56786c894cd,
            0x676bd647c9ec3039,
            0x15709de7bd67af03,
            0x676bd647c9ec3039,
            0x04454e411189c9aa,
        ],
    ),
    (
        8,
        1.0,
        1996,
        [
            0xbf61ee3f91a46bb3,
            0x104cf13883eed88c,
            0xbf61ee3f91a46bb3,
            0x869a8c409015aac0,
            0xbf61ee3f91a46bb3,
            0x3e0f423bfc8d0db7,
        ],
    ),
    (
        12,
        0.001,
        0xD1B_1996,
        [
            0xa817ecc2cf85dc74,
            0xa817ecc2cf85dc74,
            0xa817ecc2cf85dc74,
            0xc1c82489255d271c,
            0xa817ecc2cf85dc74,
            0xca798354f2d1fc38,
        ],
    ),
    (
        12,
        0.001,
        1996,
        [
            0x24ff5404c309ff93,
            0x24ff5404c309ff93,
            0x24ff5404c309ff93,
            0x14d15b8676d2fdd3,
            0x24ff5404c309ff93,
            0x3b117f41394a095c,
        ],
    ),
    (
        12,
        1.0,
        0xD1B_1996,
        [
            0x5c642d10b9c9db2d,
            0x5c642d10b9c9db2d,
            0x5c642d10b9c9db2d,
            0x1c7ae8802a39880b,
            0x5c642d10b9c9db2d,
            0xe76cbcef6ef308f1,
        ],
    ),
    (
        12,
        1.0,
        1996,
        [
            0x78b7cf6a1cedbb9c,
            0x78b7cf6a1cedbb9c,
            0x78b7cf6a1cedbb9c,
            0x079b3caae5596fd8,
            0x78b7cf6a1cedbb9c,
            0xe6ccae091c2114b2,
        ],
    ),
    (
        24,
        0.001,
        0xD1B_1996,
        [
            0xb70460c61d748a42,
            0xb70460c61d748a42,
            0xb70460c61d748a42,
            0x1613b4bce0f3f83e,
            0xb70460c61d748a42,
            0xf3b8ad694e1a19fd,
        ],
    ),
    (
        24,
        0.001,
        1996,
        [
            0xfb2d2ea6c913843b,
            0xfb2d2ea6c913843b,
            0xfb2d2ea6c913843b,
            0xaf920a5fce93a398,
            0xfb2d2ea6c913843b,
            0x2c54790b7d52f7b4,
        ],
    ),
    (
        24,
        1.0,
        0xD1B_1996,
        [
            0x313a63f47930ef72,
            0x313a63f47930ef72,
            0x313a63f47930ef72,
            0x10ebfec76072ac64,
            0x313a63f47930ef72,
            0xfe5552db293a1d31,
        ],
    ),
    (
        24,
        1.0,
        1996,
        [
            0x54b37aa592de93d9,
            0x54b37aa592de93d9,
            0x54b37aa592de93d9,
            0xd0bb91fd903203b4,
            0x54b37aa592de93d9,
            0x85d6b3888d3fd842,
        ],
    ),
];

fn render(tree: &JoinTree, out: &mut String) {
    match tree {
        JoinTree::Leaf {
            relation,
            cardinality,
        } => {
            let _ = write!(out, "L{}:{cardinality}", relation.0);
        }
        JoinTree::Join {
            build,
            probe,
            cardinality,
        } => {
            let _ = write!(out, "J{cardinality}(");
            render(build, out);
            out.push(',');
            render(probe, out);
            out.push(')');
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(relations: usize, scale: f64, seed: u64, keep_best: usize, candidates: usize) -> u64 {
    let workload = WorkloadGenerator::new(WorkloadParams {
        queries: QUERIES,
        relations_per_query: relations,
        scale,
        skew: 0.0,
        seed,
    })
    .generate();
    let optimizer = Optimizer::new(
        OptimizerParams {
            candidates,
            keep_best,
            ..OptimizerParams::default()
        },
        CostModel::default(),
    );
    let mut text = String::new();
    for query in &workload {
        let trees = optimizer
            .optimize(query)
            .expect("generated queries optimize");
        let _ = write!(text, "q{}:{}[", query.id.0, trees.len());
        for tree in &trees {
            render(tree, &mut text);
            text.push(';');
        }
        text.push(']');
    }
    fnv1a(text.as_bytes())
}

#[test]
fn optimizer_output_matches_pinned_digests() {
    let mut mismatches = Vec::new();
    let mut actual = String::new();
    for &(relations, scale, seed, pinned) in &PINS {
        let got: Vec<u64> = PARAMS
            .iter()
            .map(|&(keep_best, candidates)| digest(relations, scale, seed, keep_best, candidates))
            .collect();
        let _ = write!(actual, "    ({relations}, {scale:?}, {seed:#X}, [");
        for (k, d) in got.iter().enumerate() {
            let _ = write!(actual, "{}{d:#018x}", if k == 0 { "" } else { ", " });
        }
        actual.push_str("]),\n");
        for (k, (&g, &p)) in got.iter().zip(&pinned).enumerate() {
            if g != p {
                let (keep_best, candidates) = PARAMS[k];
                mismatches.push(format!(
                    "relations {relations}, scale {scale}, seed {seed:#X}, keep_best {keep_best}, \
                     candidates {candidates}: got {g:#018x}, pinned {p:#018x}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} optimizer digests changed:\n{}\nactual table:\n{actual}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

#[test]
fn rendering_distinguishes_build_from_probe() {
    use dlb_common::RelationId;
    let a = JoinTree::leaf(RelationId::new(0), 10);
    let b = JoinTree::leaf(RelationId::new(1), 20);
    let mut left = String::new();
    render(&JoinTree::join(a.clone(), b.clone(), 0.1), &mut left);
    assert_eq!(left, "J20(L0:10,L1:20)");
    let mut swapped = String::new();
    render(&JoinTree::join(b, a, 0.1), &mut swapped);
    assert_eq!(
        left, swapped,
        "the build side is the smaller input either way"
    );
}
