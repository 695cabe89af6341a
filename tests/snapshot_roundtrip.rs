//! Instance serde round-trip through the facade:
//! `instance == deserialize(serialize(instance))` for every conflict
//! structure and every bidding language the workloads produce.
//!
//! The commit–reveal transcript stands on this seam — the audit replays a
//! [`InstanceSnapshot`] baseline and compares revealed valuations as
//! [`ValuationSnapshot`]s — so the codec must be lossless: the restored
//! instance answers every bundle query identically, and re-snapshotting it
//! yields an equal snapshot.
//!
//! [`InstanceSnapshot`]: spectrum_auctions::auction::snapshot::InstanceSnapshot
//! [`ValuationSnapshot`]: spectrum_auctions::auction::snapshot::ValuationSnapshot

use spectrum_auctions::auction::snapshot::{
    BinaryGraphSnapshot, ConflictSnapshot, InstanceSnapshot, SnapshotError, ValuationSnapshot,
};
use spectrum_auctions::auction::{AuctionInstance, ChannelSet, ConflictStructure};
use spectrum_auctions::conflict_graph::{VertexOrdering, WeightedConflictGraph};
use spectrum_auctions::interference::{PowerAssignment, SinrParameters};
use spectrum_auctions::workloads::{
    asymmetric_scenario, physical_scenario, protocol_scenario, ScenarioConfig, ValuationProfile,
};

/// Serialize → parse → restore, then check the restored instance is
/// observationally identical and snapshots back to an equal value.
fn assert_roundtrip(context: &str, instance: &AuctionInstance) {
    let snapshot = InstanceSnapshot::of(instance).expect("snapshot the instance");
    let json = snapshot.to_json();
    let parsed = InstanceSnapshot::from_json(&json)
        .unwrap_or_else(|e| panic!("{context}: JSON did not parse back: {e}"));
    assert_eq!(parsed, snapshot, "{context}: decode(encode(s)) != s");

    let restored = parsed.restore();
    assert_eq!(restored.num_channels, instance.num_channels);
    assert_eq!(restored.num_bidders(), instance.num_bidders());
    assert_eq!(restored.rho, instance.rho);
    // Exhaustive value agreement on every bundle (k is small here), the
    // strongest observational-equality check available for valuations.
    let k = instance.num_channels;
    for v in 0..instance.num_bidders() {
        for bits in 0..(1u64 << k) {
            let bundle = ChannelSet::from_bits(bits);
            assert_eq!(
                instance.value(v, bundle),
                restored.value(v, bundle),
                "{context}: bidder {v} values bundle {bits:#b} differently after restore"
            );
        }
    }
    // Conflict structures agree via their own canonical snapshots.
    let again = InstanceSnapshot::of(&restored).expect("re-snapshot the restored instance");
    assert_eq!(again, snapshot, "{context}: restore is not lossless");
}

#[test]
fn protocol_markets_roundtrip_all_valuation_languages() {
    for seed in [5u64, 17, 41] {
        let mut config = ScenarioConfig::new(9, 3, seed);
        config.valuations = ValuationProfile::Mixed;
        let generated = protocol_scenario(&config, 1.0);
        assert_roundtrip(&format!("protocol seed {seed}"), &generated.instance);
    }
}

#[test]
fn physical_markets_roundtrip_weighted_conflicts() {
    let config = ScenarioConfig::new(8, 2, 7);
    let (generated, _) = physical_scenario(
        &config,
        SinrParameters::new(3.0, 1.0, 0.02),
        PowerAssignment::Linear,
    );
    assert!(matches!(
        generated.instance.conflicts,
        ConflictStructure::Weighted(_)
    ));
    assert_roundtrip("physical", &generated.instance);
}

#[test]
fn asymmetric_markets_roundtrip_per_channel_conflicts() {
    let mut config = ScenarioConfig::new(8, 3, 11);
    config.valuations = ValuationProfile::Mixed;
    let generated = asymmetric_scenario(&config, 1.0);
    assert!(matches!(
        generated.instance.conflicts,
        ConflictStructure::AsymmetricBinary(_)
    ));
    assert_roundtrip("asymmetric", &generated.instance);
}

/// The one conflict structure no generator emits: per-channel weighted
/// graphs, built by hand.
#[test]
fn asymmetric_weighted_conflicts_roundtrip() {
    let k = 2;
    let n = 4;
    let graphs: Vec<WeightedConflictGraph> = (0..k)
        .map(|c| {
            let mut g = WeightedConflictGraph::new(n);
            for u in 0..n {
                for v in 0..n {
                    if u != v && (u + v + c) % 3 == 0 {
                        g.set_weight(u, v, 0.25 + 0.5 * (u as f64) + 0.1 * (c as f64));
                    }
                }
            }
            g
        })
        .collect();
    let bidders: Vec<ValuationSnapshot> = (0..n)
        .map(|v| ValuationSnapshot::BudgetedAdditive {
            channel_values: vec![1.0 + v as f64, 2.0],
            budget: 2.5,
        })
        .collect();
    let instance = AuctionInstance::new(
        k,
        bidders.iter().map(|b| b.build()).collect(),
        ConflictStructure::AsymmetricWeighted(graphs),
        VertexOrdering::identity(n),
        1.0,
    );
    assert_roundtrip("asymmetric weighted", &instance);
}

/// Valuation snapshots round-trip canonically on their own — the form the
/// sealed-bid openings travel in.
#[test]
fn valuation_snapshots_roundtrip_canonically() {
    let cases = vec![
        ValuationSnapshot::Xor {
            num_channels: 3,
            bids: vec![(0b101, 4.0), (0b010, 2.5), (0b111, 5.0)],
        },
        ValuationSnapshot::Tabular {
            num_channels: 2,
            entries: vec![(0b01, 1.0), (0b10, 2.0), (0b11, 2.5)],
        },
        ValuationSnapshot::SingleMinded {
            num_channels: 4,
            desired: 0b1010,
            value: 7.0,
        },
        ValuationSnapshot::Additive {
            channel_values: vec![1.0, 0.0, 3.5],
        },
        ValuationSnapshot::UnitDemand {
            channel_values: vec![2.0, 4.0],
        },
        ValuationSnapshot::BudgetedAdditive {
            channel_values: vec![1.5, 2.5],
            budget: 3.0,
        },
        ValuationSnapshot::Symmetric {
            per_cardinality: vec![0.0, 1.8, 2.2],
        },
    ];
    for snapshot in cases {
        let canonical = snapshot.canonical();
        // canonical_bytes is the commitment preimage; equal snapshots must
        // produce equal bytes after a round-trip through build+snapshot.
        let rebuilt = snapshot
            .build()
            .snapshot()
            .expect("built valuations snapshot back");
        assert_eq!(
            rebuilt.canonical_bytes(),
            canonical.canonical_bytes(),
            "{snapshot:?}: canonical bytes drifted through build"
        );
    }
}

/// Snapshot JSON is input from outside the program, so `from_json` must
/// reject every snapshot that `restore` would panic on. Each case edits one
/// field of a valid two-bidder snapshot.
#[test]
fn from_json_rejects_snapshots_that_cannot_restore() {
    let xor = |bits: u64| ValuationSnapshot::Xor {
        num_channels: 2,
        bids: vec![(bits, 3.0)],
    };
    let graph = |n: usize| BinaryGraphSnapshot {
        n,
        edges: vec![(0, 1)],
    };
    let valid = InstanceSnapshot {
        num_channels: 2,
        rho: 1.0,
        bidders: vec![xor(0b01), xor(0b11)],
        conflicts: ConflictSnapshot::Binary(graph(2)),
        ordering: vec![1, 0],
    };
    let parsed = InstanceSnapshot::from_json(&valid.to_json()).expect("the valid snapshot parses");
    assert_eq!(parsed.restore().num_bidders(), 2);

    let edit = |change: &dyn Fn(&mut InstanceSnapshot)| {
        let mut snapshot = valid.clone();
        change(&mut snapshot);
        snapshot.to_json()
    };
    let cases: Vec<(&str, String)> = vec![
        (
            "repeated vertex in ordering",
            edit(&|s| s.ordering = vec![0, 0]),
        ),
        (
            "ordering vertex out of range",
            edit(&|s| s.ordering = vec![0, 2]),
        ),
        ("ordering too short", edit(&|s| s.ordering = vec![0])),
        ("zero channels", edit(&|s| s.num_channels = 0)),
        ("more than 64 channels", edit(&|s| s.num_channels = 65)),
        (
            "bidder over the wrong channel count",
            edit(&|s| s.num_channels = 3),
        ),
        ("rho below 1", edit(&|s| s.rho = 0.5)),
        (
            "rho not finite",
            valid.to_json().replace("\"rho\":1.0", "\"rho\":1e400"),
        ),
        ("bidder missing", edit(&|s| s.bidders.truncate(1))),
        (
            "graph larger than the bidder set",
            edit(&|s| s.conflicts = ConflictSnapshot::Binary(graph(3))),
        ),
        (
            "one asymmetric graph for two channels",
            edit(&|s| s.conflicts = ConflictSnapshot::AsymmetricBinary(vec![graph(2)])),
        ),
        (
            "edge to a vertex past the bidder set",
            edit(&|s| {
                s.conflicts = ConflictSnapshot::Binary(BinaryGraphSnapshot {
                    n: 2,
                    edges: vec![(0, 2)],
                })
            }),
        ),
        (
            "symmetric valuation without cardinalities",
            edit(&|s| {
                s.bidders[1] = ValuationSnapshot::Symmetric {
                    per_cardinality: vec![],
                }
            }),
        ),
        (
            "asymmetric graphs of different sizes",
            edit(&|s| s.conflicts = ConflictSnapshot::AsymmetricBinary(vec![graph(2), graph(3)])),
        ),
        (
            "XOR bid on a channel past k",
            edit(&|s| s.bidders[1] = xor(0b100)),
        ),
        (
            "tabular entry on a channel past k",
            edit(&|s| {
                s.bidders[1] = ValuationSnapshot::Tabular {
                    num_channels: 2,
                    entries: vec![(0b01, 1.0), (0b110, 2.0)],
                }
            }),
        ),
        (
            "single-minded bundle past k",
            edit(&|s| {
                s.bidders[1] = ValuationSnapshot::SingleMinded {
                    num_channels: 2,
                    desired: 1 << 63,
                    value: 2.0,
                }
            }),
        ),
    ];
    for (label, json) in cases {
        assert_ne!(json, valid.to_json(), "{label}: the edit changed nothing");
        match InstanceSnapshot::from_json(&json) {
            Err(SnapshotError::Schema(_)) => {}
            other => panic!("{label}: expected a schema error, got {other:?}"),
        }
    }
}
