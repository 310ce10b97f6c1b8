//! Seeded mutation fuzz over the artifact decoders: truncations, bit flips,
//! byte smashes, zeroed and oversized length fields — every mutation must
//! surface as a typed [`DpcError`] (`Corrupt`, `TruncatedArtifact`), never a
//! panic, never a silently accepted wrong decode.
//!
//! The seed is taken from `PERSIST_FUZZ_SEED` when set (decimal or `0x` hex)
//! and echoed on entry, so any CI failure replays locally with
//! `PERSIST_FUZZ_SEED=<seed> cargo test -p dpc-persist --test corruption`.

use dpc_core::framework::descending_density_order;
use dpc_core::{DpcError, DpcModel, Thresholds, Timings};
use dpc_geometry::Dataset;
use dpc_index::KdTree;
use dpc_persist::{PersistModel, PersistTree, SnapshotArtifact};
use dpc_rng::StdRng;
use dpc_serve::Snapshot;

/// Mutations per artifact flavour; three flavours ⇒ ≥ 1200 decodes total.
const MUTATIONS_PER_ARTIFACT: usize = 400;

fn fuzz_seed() -> u64 {
    match std::env::var("PERSIST_FUZZ_SEED") {
        Ok(raw) => {
            let parsed = raw
                .strip_prefix("0x")
                .map(|hex| u64::from_str_radix(hex, 16))
                .unwrap_or_else(|| raw.parse());
            parsed.unwrap_or_else(|_| panic!("unparseable PERSIST_FUZZ_SEED {raw:?}"))
        }
        Err(_) => 0xF0D5_EED5,
    }
}

fn fixture_dataset() -> Dataset {
    let mut rng = StdRng::seed_from_u64(41);
    let mut data = Dataset::new(2);
    for _ in 0..96 {
        let p = [rng.gen_range(-30.0..30.0), rng.gen_range(-30.0..30.0)];
        data.push(&p);
    }
    data
}

/// Random densities and distances with a valid dependency forest: every
/// point depends on the next denser point, the densest on itself. A valid
/// model decodes, so every rejection below is the mutation's doing.
fn fixture_model(n: usize) -> DpcModel {
    let mut rng = StdRng::seed_from_u64(42);
    let rho: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..50.0)).collect();
    let delta: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..5.0)).collect();
    let order = descending_density_order(&rho);
    let mut dependent: Vec<usize> = (0..n).collect();
    for w in order.windows(2) {
        dependent[w[1]] = w[0];
    }
    DpcModel::from_parts("Ex-DPC", 2.0, rho, delta, dependent, Timings::default(), 64).unwrap()
}

/// Applies one random mutation; returns a human-readable tag for diagnostics.
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) -> String {
    let pick = |rng: &mut StdRng, n: usize| (rng.next_u64() % n as u64) as usize;
    match rng.next_u64() % 6 {
        // Truncate anywhere, including mid-header and mid-table.
        0 => {
            let keep = pick(rng, bytes.len());
            bytes.truncate(keep);
            format!("truncate to {keep}")
        }
        // Flip one bit anywhere.
        1 => {
            let at = pick(rng, bytes.len());
            let bit = rng.next_u64() % 8;
            bytes[at] ^= 1 << bit;
            format!("flip bit {bit} of byte {at}")
        }
        // Smash a short run of bytes.
        2 => {
            let at = pick(rng, bytes.len());
            let run = (pick(rng, 16) + 1).min(bytes.len() - at);
            for b in &mut bytes[at..at + run] {
                *b = (rng.next_u64() & 0xFF) as u8;
            }
            format!("smash {run} bytes at {at}")
        }
        // Oversize a length/offset field in the section table (u64 at an
        // 8-aligned offset within the table region): claims data past EOF.
        3 => {
            let at = 32 + pick(rng, 8) * 8;
            if at + 8 > bytes.len() {
                bytes.truncate(16);
                return "truncate (tiny artifact)".into();
            }
            bytes[at..at + 8].copy_from_slice(&u64::MAX.to_ne_bytes());
            format!("oversize u64 field at {at}")
        }
        // Zero a whole aligned word.
        4 => {
            let words = bytes.len() / 8;
            let at = pick(rng, words) * 8;
            bytes[at..at + 8].fill(0);
            format!("zero word at {at}")
        }
        // Duplicate-extend: append a copy of a prefix (trailing garbage /
        // inflated buffer with a stale header).
        _ => {
            let extra = pick(rng, bytes.len()) + 1;
            let copy: Vec<u8> = bytes[..extra].to_vec();
            bytes.extend_from_slice(&copy);
            format!("append {extra} prefix bytes")
        }
    }
}

/// Every decoder the artifact flavour supports must reject the mutant with a
/// typed error. Decoding runs inside the test harness, so a panic anywhere
/// fails the test with the echoed seed and mutation tag.
fn assert_rejected(original: &[u8], mutant: &[u8], data: &Dataset, seed: u64, tag: &str) {
    if mutant == original {
        return; // e.g. appending onto a prefix-identical buffer — not here, but cheap to guard
    }
    let check = |result: Result<(), DpcError>, decoder: &str| {
        if let Err(err) = result {
            assert!(
                matches!(err, DpcError::Corrupt { .. } | DpcError::TruncatedArtifact { .. }),
                "seed {seed:#x}: {decoder} returned non-artifact error {err:?} after {tag}"
            );
        } else {
            panic!("seed {seed:#x}: {decoder} accepted a mutated artifact after {tag}");
        }
    };
    check(DpcModel::from_bytes(mutant).map(drop), "model decoder");
    check(KdTree::from_bytes(data, mutant).map(drop), "tree decoder");
    check(SnapshotArtifact::from_bytes(mutant).map(drop), "snapshot decoder");
}

#[test]
fn seeded_mutation_storm_never_panics_and_always_rejects() {
    let seed = fuzz_seed();
    println!("PERSIST_FUZZ_SEED={seed:#x} (set this env var to replay)");
    let mut rng = StdRng::seed_from_u64(seed);

    let data = fixture_dataset();
    let model = fixture_model(data.len());
    let tree = KdTree::build(&data);
    let thresholds = Thresholds::new(1.0, 2.0).unwrap();
    let artifacts = [
        ("model", model.to_bytes()),
        ("tree", tree.to_bytes()),
        ("snapshot", SnapshotArtifact::encode(&data, &model, &tree, &thresholds)),
    ];

    for (flavour, original) in &artifacts {
        for round in 0..MUTATIONS_PER_ARTIFACT {
            let mut mutant = original.clone();
            let tag = mutate(&mut rng, &mut mutant);
            assert_rejected(original, &mutant, &data, seed, &format!("{flavour}#{round}: {tag}"));
        }
    }
}

#[test]
fn targeted_header_corruptions_yield_typed_errors() {
    let model = fixture_model(32);
    let bytes = model.to_bytes();
    let corrupt_at = |at: usize, to: u8| {
        let mut b = bytes.clone();
        b[at] = to;
        DpcModel::from_bytes(&b).unwrap_err()
    };
    // Bad magic.
    assert!(matches!(corrupt_at(0, b'X'), DpcError::Corrupt { .. }));
    // Unsupported version.
    assert!(matches!(corrupt_at(8, 0xFF), DpcError::Corrupt { .. }));
    // Foreign endianness tag.
    assert!(matches!(corrupt_at(12, 0xFF), DpcError::Corrupt { .. }));
    // Reserved header field must be zero.
    assert!(matches!(corrupt_at(20, 1), DpcError::Corrupt { .. }));
    // Stored whole-file checksum.
    let mut b = bytes.clone();
    b[24] ^= 0x01;
    assert!(matches!(DpcModel::from_bytes(&b).unwrap_err(), DpcError::Corrupt { .. }));
    // Every strict prefix is rejected (truncation at all lengths).
    for keep in 0..bytes.len() {
        let err = DpcModel::from_bytes(&bytes[..keep]).unwrap_err();
        assert!(
            matches!(err, DpcError::Corrupt { .. } | DpcError::TruncatedArtifact { .. }),
            "prefix of {keep} bytes: unexpected {err:?}"
        );
    }
}

#[test]
fn wrong_flavour_is_rejected_not_misread() {
    // A tree-only artifact has no model sections and vice versa: the decoder
    // reports a missing section, it does not invent one.
    let data = fixture_dataset();
    let tree_bytes = KdTree::build(&data).to_bytes();
    assert!(matches!(
        DpcModel::from_bytes(&tree_bytes).unwrap_err(),
        DpcError::Corrupt { section: "model", .. }
    ));
    let model_bytes = fixture_model(8).to_bytes();
    let Err(err) = KdTree::from_bytes(&data, &model_bytes) else {
        panic!("tree decoder accepted a model artifact")
    };
    assert!(matches!(err, DpcError::Corrupt { section: "tree", .. }), "got {err:?}");
    assert!(SnapshotArtifact::from_bytes(&model_bytes).is_err());
}

/// Semantic mutants: models whose checksums are genuine (encoded through
/// [`SnapshotArtifact::encode`]) but whose content no fit could produce.
/// Each must come back as a typed `Corrupt { section: "model" }` from the
/// model decoder and from a serving snapshot load — never install, never
/// panic in label propagation.
#[test]
fn semantic_model_mutants_are_rejected_at_load() {
    type Parts = (Vec<f64>, Vec<f64>, Vec<usize>);
    type Mutation = fn(&mut Parts, &[usize]);
    let data = fixture_dataset();
    let base = fixture_model(data.len());
    let tree = KdTree::build(&data);
    let thresholds = Thresholds::new(1.0, 2.0).unwrap();
    let order = base.density_order().to_vec();
    let mutants: [(&str, Mutation); 6] = [
        // The runner-up then follows the second-least dense point.
        ("swapped dependents", |(_, _, dep), o| dep.swap(o[1], o[o.len() - 1])),
        ("dependent on a less dense point", |(_, _, dep), o| dep[o[5]] = o[10]),
        ("NaN rho", |(rho, _, _), o| rho[o[7]] = f64::NAN),
        ("infinite rho", |(rho, _, _), o| rho[o[0]] = f64::INFINITY),
        ("NaN delta", |(_, delta, _), o| delta[o[3]] = f64::NAN),
        ("negative delta", |(_, delta, _), o| delta[o[3]] = -1.0),
    ];
    let encode = |(rho, delta, dep): Parts| {
        let model =
            DpcModel::from_parts("Ex-DPC", 2.0, rho, delta, dep, Timings::default(), 64).unwrap();
        SnapshotArtifact::encode(&data, &model, &tree, &thresholds)
    };
    let parts =
        || -> Parts { (base.rho().to_vec(), base.delta().to_vec(), base.dependent().to_vec()) };

    let genuine = encode(parts());
    assert!(DpcModel::from_bytes(&genuine).unwrap().layout_eq(&base));
    assert!(Snapshot::from_artifact_bytes(&genuine).is_ok());

    for (name, mutate) in mutants {
        let mut mutant = parts();
        mutate(&mut mutant, &order);
        let bytes = encode(mutant);
        let model_err = DpcModel::from_bytes(&bytes).map(drop).unwrap_err();
        assert!(
            matches!(model_err, DpcError::Corrupt { section: "model", .. }),
            "{name}: {model_err:?}"
        );
        let Err(snap_err) = Snapshot::from_artifact_bytes(&bytes) else {
            panic!("{name}: a serving snapshot installed the mutant")
        };
        assert!(
            matches!(snap_err, DpcError::Corrupt { section: "model", .. }),
            "{name}: {snap_err:?}"
        );
    }
}
