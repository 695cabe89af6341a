//! Serializable snapshots of auction instances.
//!
//! [`AuctionInstance`] holds trait objects (`Arc<dyn Valuation>`), so it
//! cannot derive `serde` directly. This module provides the snapshot seam:
//! plain-data mirrors of the instance ([`InstanceSnapshot`]), its conflict
//! structure ([`ConflictSnapshot`]) and every built-in valuation class
//! ([`ValuationSnapshot`]), plus a self-contained JSON codec so snapshots
//! survive a process boundary even in the offline build (the vendored
//! `serde` stand-in is a no-op marker; the derives below become real
//! serialization the moment the genuine crate is swapped in).
//!
//! Snapshots serve two consumers:
//!
//! * **Persistence / replay** — `InstanceSnapshot::of(&instance)` →
//!   [`InstanceSnapshot::to_json`] → [`InstanceSnapshot::from_json`] →
//!   [`InstanceSnapshot::restore`] round-trips an instance exactly (the
//!   snapshot types derive `PartialEq`, so round-trip equality is
//!   checkable).
//! * **Commitments** — the sealed-bid front-end in `ssa-mechanism` hashes
//!   [`ValuationSnapshot::canonical_bytes`], a *canonical* encoding
//!   (tabular/XOR entries sorted, floats printed in shortest round-trip
//!   form) so that equal valuations always produce equal commitment
//!   payloads.

use crate::channels::{ChannelSet, MAX_CHANNELS};
use crate::instance::{AuctionInstance, ConflictStructure};
use crate::valuation::{
    AdditiveValuation, BudgetedAdditiveValuation, SingleMindedValuation, SymmetricValuation,
    TabularValuation, UnitDemandValuation, Valuation, XorValuation,
};
use serde::{Deserialize, Serialize};
use ssa_conflict_graph::{ConflictGraph, VertexOrdering, WeightedConflictGraph};
use std::sync::Arc;

/// Errors of the snapshot seam.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// A bidder's valuation is a custom type that does not implement
    /// [`Valuation::snapshot`].
    NonSnapshottable {
        /// The offending bidder index.
        bidder: usize,
    },
    /// The JSON text could not be tokenized/parsed.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// The JSON parsed but did not match the snapshot schema.
    Schema(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::NonSnapshottable { bidder } => {
                write!(f, "bidder {bidder}'s valuation type is not snapshottable")
            }
            SnapshotError::Parse { offset, message } => {
                write!(f, "JSON parse error at byte {offset}: {message}")
            }
            SnapshotError::Schema(message) => write!(f, "snapshot schema error: {message}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Plain-data mirror of one built-in valuation class. Bundles are stored as
/// raw bit masks ([`ChannelSet::bits`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ValuationSnapshot {
    /// [`TabularValuation`]; entries are sorted by bundle bits (the source
    /// hash map iterates in arbitrary order, the snapshot must not).
    Tabular {
        /// Number of channels `k`.
        num_channels: usize,
        /// `(bundle bits, value)`, sorted ascending by bits.
        entries: Vec<(u64, f64)>,
    },
    /// [`XorValuation`]; atomic bids in their stored order.
    Xor {
        /// Number of channels `k`.
        num_channels: usize,
        /// `(bundle bits, value)` atomic bids.
        bids: Vec<(u64, f64)>,
    },
    /// [`SingleMindedValuation`].
    SingleMinded {
        /// Number of channels `k`.
        num_channels: usize,
        /// Bits of the desired bundle.
        desired: u64,
        /// Value of any superset of the desired bundle.
        value: f64,
    },
    /// [`AdditiveValuation`].
    Additive {
        /// Per-channel values.
        channel_values: Vec<f64>,
    },
    /// [`UnitDemandValuation`].
    UnitDemand {
        /// Per-channel values.
        channel_values: Vec<f64>,
    },
    /// [`BudgetedAdditiveValuation`].
    BudgetedAdditive {
        /// Per-channel values.
        channel_values: Vec<f64>,
        /// The budget cap.
        budget: f64,
    },
    /// [`SymmetricValuation`].
    Symmetric {
        /// Value by bundle cardinality (`per_cardinality[0] == 0`).
        per_cardinality: Vec<f64>,
    },
}

impl ValuationSnapshot {
    /// Reconstructs the valuation object.
    pub fn build(&self) -> Arc<dyn Valuation> {
        match self {
            ValuationSnapshot::Tabular {
                num_channels,
                entries,
            } => Arc::new(TabularValuation::new(
                *num_channels,
                entries
                    .iter()
                    .map(|&(bits, v)| (ChannelSet::from_bits(bits), v))
                    .collect(),
            )),
            ValuationSnapshot::Xor { num_channels, bids } => Arc::new(XorValuation::new(
                *num_channels,
                bids.iter()
                    .map(|&(bits, v)| (ChannelSet::from_bits(bits), v))
                    .collect(),
            )),
            ValuationSnapshot::SingleMinded {
                num_channels,
                desired,
                value,
            } => Arc::new(SingleMindedValuation::new(
                *num_channels,
                ChannelSet::from_bits(*desired),
                *value,
            )),
            ValuationSnapshot::Additive { channel_values } => {
                Arc::new(AdditiveValuation::new(channel_values.clone()))
            }
            ValuationSnapshot::UnitDemand { channel_values } => {
                Arc::new(UnitDemandValuation::new(channel_values.clone()))
            }
            ValuationSnapshot::BudgetedAdditive {
                channel_values,
                budget,
            } => Arc::new(BudgetedAdditiveValuation::new(
                channel_values.clone(),
                *budget,
            )),
            ValuationSnapshot::Symmetric { per_cardinality } => {
                Arc::new(SymmetricValuation::new(per_cardinality.clone()))
            }
        }
    }

    /// The number of channels the valuation is defined over.
    pub fn num_channels(&self) -> usize {
        match self {
            ValuationSnapshot::Tabular { num_channels, .. }
            | ValuationSnapshot::Xor { num_channels, .. }
            | ValuationSnapshot::SingleMinded { num_channels, .. } => *num_channels,
            ValuationSnapshot::Additive { channel_values }
            | ValuationSnapshot::UnitDemand { channel_values }
            | ValuationSnapshot::BudgetedAdditive { channel_values, .. } => channel_values.len(),
            ValuationSnapshot::Symmetric { per_cardinality } => {
                per_cardinality.len().saturating_sub(1)
            }
        }
    }

    /// Checks that the valuation fits a `k`-channel instance: it is defined
    /// over `k` channels, and every bundle it names (a tabular entry, an
    /// XOR bid, the single-minded desired bundle) lies in `[k]`. A bundle
    /// past `k` would index past the price vector in a demand query.
    pub fn check_channels(&self, k: usize) -> Result<(), String> {
        if self.num_channels() != k {
            return Err(format!(
                "is defined over {} channels, expected {k}",
                self.num_channels()
            ));
        }
        let outside = if k >= MAX_CHANNELS { 0 } else { u64::MAX << k };
        let fits = |bits: u64| bits & outside == 0;
        let all_fit = match self {
            ValuationSnapshot::Tabular { entries: pairs, .. }
            | ValuationSnapshot::Xor { bids: pairs, .. } => {
                pairs.iter().all(|&(bits, _)| fits(bits))
            }
            ValuationSnapshot::SingleMinded { desired, .. } => fits(*desired),
            _ => true,
        };
        if all_fit {
            Ok(())
        } else {
            Err(format!("names a bundle outside the {k} channels"))
        }
    }

    /// The canonical form: order-insensitive collections sorted so that
    /// semantically equal snapshots encode to identical bytes.
    pub fn canonical(&self) -> ValuationSnapshot {
        let mut c = self.clone();
        match &mut c {
            ValuationSnapshot::Tabular { entries, .. } => {
                entries.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            }
            ValuationSnapshot::Xor { bids, .. } => {
                bids.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            }
            _ => {}
        }
        c
    }

    /// Canonical byte encoding — the commitment payload of the sealed-bid
    /// front-end. Equal valuations (up to entry order) produce equal bytes.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        self.canonical().to_json_value().encode().into_bytes()
    }

    fn to_json_value(&self) -> Json {
        match self {
            ValuationSnapshot::Tabular {
                num_channels,
                entries,
            } => Json::obj(vec![
                ("kind", Json::str("tabular")),
                ("k", Json::UInt(*num_channels as u64)),
                ("entries", encode_bit_value_pairs(entries)),
            ]),
            ValuationSnapshot::Xor { num_channels, bids } => Json::obj(vec![
                ("kind", Json::str("xor")),
                ("k", Json::UInt(*num_channels as u64)),
                ("bids", encode_bit_value_pairs(bids)),
            ]),
            ValuationSnapshot::SingleMinded {
                num_channels,
                desired,
                value,
            } => Json::obj(vec![
                ("kind", Json::str("single_minded")),
                ("k", Json::UInt(*num_channels as u64)),
                ("desired", Json::UInt(*desired)),
                ("value", Json::Num(*value)),
            ]),
            ValuationSnapshot::Additive { channel_values } => Json::obj(vec![
                ("kind", Json::str("additive")),
                ("channel_values", encode_f64s(channel_values)),
            ]),
            ValuationSnapshot::UnitDemand { channel_values } => Json::obj(vec![
                ("kind", Json::str("unit_demand")),
                ("channel_values", encode_f64s(channel_values)),
            ]),
            ValuationSnapshot::BudgetedAdditive {
                channel_values,
                budget,
            } => Json::obj(vec![
                ("kind", Json::str("budgeted_additive")),
                ("channel_values", encode_f64s(channel_values)),
                ("budget", Json::Num(*budget)),
            ]),
            ValuationSnapshot::Symmetric { per_cardinality } => Json::obj(vec![
                ("kind", Json::str("symmetric")),
                ("per_cardinality", encode_f64s(per_cardinality)),
            ]),
        }
    }

    fn from_json_value(json: &Json) -> Result<Self, SnapshotError> {
        let kind = json.get("kind")?.as_str()?;
        match kind {
            "tabular" => Ok(ValuationSnapshot::Tabular {
                num_channels: json.get("k")?.as_usize()?,
                entries: decode_bit_value_pairs(json.get("entries")?)?,
            }),
            "xor" => Ok(ValuationSnapshot::Xor {
                num_channels: json.get("k")?.as_usize()?,
                bids: decode_bit_value_pairs(json.get("bids")?)?,
            }),
            "single_minded" => Ok(ValuationSnapshot::SingleMinded {
                num_channels: json.get("k")?.as_usize()?,
                desired: json.get("desired")?.as_u64()?,
                value: json.get("value")?.as_f64()?,
            }),
            "additive" => Ok(ValuationSnapshot::Additive {
                channel_values: decode_f64s(json.get("channel_values")?)?,
            }),
            "unit_demand" => Ok(ValuationSnapshot::UnitDemand {
                channel_values: decode_f64s(json.get("channel_values")?)?,
            }),
            "budgeted_additive" => Ok(ValuationSnapshot::BudgetedAdditive {
                channel_values: decode_f64s(json.get("channel_values")?)?,
                budget: json.get("budget")?.as_f64()?,
            }),
            "symmetric" => Ok(ValuationSnapshot::Symmetric {
                per_cardinality: decode_f64s(json.get("per_cardinality")?)?,
            }),
            other => Err(SnapshotError::Schema(format!(
                "unknown valuation kind {other:?}"
            ))),
        }
    }
}

/// Plain-data mirror of a [`ConflictGraph`]: vertex count plus the edge
/// list `(u, v)` with `u < v`, ascending.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BinaryGraphSnapshot {
    /// Number of vertices.
    pub n: usize,
    /// Edges `(u, v)` with `u < v`.
    pub edges: Vec<(usize, usize)>,
}

impl BinaryGraphSnapshot {
    /// Snapshots a graph.
    pub fn of(graph: &ConflictGraph) -> Self {
        BinaryGraphSnapshot {
            n: graph.num_vertices(),
            edges: graph.edges().collect(),
        }
    }

    /// Reconstructs the graph.
    pub fn restore(&self) -> ConflictGraph {
        ConflictGraph::from_edges(self.n, &self.edges)
    }
}

/// Plain-data mirror of a [`WeightedConflictGraph`]: per-vertex incoming
/// rows `(source, weight)`, sorted by source.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WeightedGraphSnapshot {
    /// `incoming[v]` lists `(u, w(u → v))`, sorted by `u`.
    pub incoming: Vec<Vec<(usize, f64)>>,
}

impl WeightedGraphSnapshot {
    /// Snapshots a graph.
    pub fn of(graph: &WeightedConflictGraph) -> Self {
        let incoming = (0..graph.num_vertices())
            .map(|v| {
                let mut row = graph.in_neighbors(v).to_vec();
                row.sort_by_key(|e| e.0);
                row
            })
            .collect();
        WeightedGraphSnapshot { incoming }
    }

    /// Reconstructs the graph.
    pub fn restore(&self) -> WeightedConflictGraph {
        WeightedConflictGraph::from_incoming_rows(self.incoming.len(), |v| self.incoming[v].clone())
    }
}

/// Plain-data mirror of a [`ConflictStructure`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ConflictSnapshot {
    /// One binary graph shared by all channels.
    Binary(BinaryGraphSnapshot),
    /// One edge-weighted graph shared by all channels.
    Weighted(WeightedGraphSnapshot),
    /// One binary graph per channel (Section 6).
    AsymmetricBinary(Vec<BinaryGraphSnapshot>),
    /// One edge-weighted graph per channel.
    AsymmetricWeighted(Vec<WeightedGraphSnapshot>),
}

impl ConflictSnapshot {
    /// Snapshots a conflict structure.
    pub fn of(conflicts: &ConflictStructure) -> Self {
        match conflicts {
            ConflictStructure::Binary(g) => ConflictSnapshot::Binary(BinaryGraphSnapshot::of(g)),
            ConflictStructure::Weighted(g) => {
                ConflictSnapshot::Weighted(WeightedGraphSnapshot::of(g))
            }
            ConflictStructure::AsymmetricBinary(gs) => {
                ConflictSnapshot::AsymmetricBinary(gs.iter().map(BinaryGraphSnapshot::of).collect())
            }
            ConflictStructure::AsymmetricWeighted(gs) => ConflictSnapshot::AsymmetricWeighted(
                gs.iter().map(WeightedGraphSnapshot::of).collect(),
            ),
        }
    }

    /// Reconstructs the conflict structure.
    pub fn restore(&self) -> ConflictStructure {
        match self {
            ConflictSnapshot::Binary(g) => ConflictStructure::Binary(g.restore()),
            ConflictSnapshot::Weighted(g) => ConflictStructure::Weighted(g.restore()),
            ConflictSnapshot::AsymmetricBinary(gs) => {
                ConflictStructure::AsymmetricBinary(gs.iter().map(|g| g.restore()).collect())
            }
            ConflictSnapshot::AsymmetricWeighted(gs) => {
                ConflictStructure::AsymmetricWeighted(gs.iter().map(|g| g.restore()).collect())
            }
        }
    }
}

/// Plain-data mirror of a full [`AuctionInstance`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct InstanceSnapshot {
    /// Number of channels `k`.
    pub num_channels: usize,
    /// The LP's interference capacity ρ.
    pub rho: f64,
    /// One snapshot per bidder, in bidder order.
    pub bidders: Vec<ValuationSnapshot>,
    /// The conflict structure.
    pub conflicts: ConflictSnapshot,
    /// The vertex ordering π as an order vector.
    pub ordering: Vec<usize>,
}

impl InstanceSnapshot {
    /// Snapshots an instance. Fails with
    /// [`SnapshotError::NonSnapshottable`] if any bidder's valuation is a
    /// custom type without a [`Valuation::snapshot`] implementation.
    pub fn of(instance: &AuctionInstance) -> Result<Self, SnapshotError> {
        let bidders = instance
            .bidders
            .iter()
            .enumerate()
            .map(|(v, b)| {
                b.snapshot()
                    .ok_or(SnapshotError::NonSnapshottable { bidder: v })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(InstanceSnapshot {
            num_channels: instance.num_channels,
            rho: instance.rho,
            bidders,
            conflicts: ConflictSnapshot::of(&instance.conflicts),
            ordering: instance.ordering.as_order().to_vec(),
        })
    }

    /// Reconstructs the instance.
    pub fn restore(&self) -> AuctionInstance {
        AuctionInstance::new(
            self.num_channels,
            self.bidders.iter().map(|b| b.build()).collect(),
            self.conflicts.restore(),
            VertexOrdering::from_order(self.ordering.clone()),
            self.rho,
        )
    }

    /// Serializes the snapshot to JSON text.
    pub fn to_json(&self) -> String {
        let conflicts = match &self.conflicts {
            ConflictSnapshot::Binary(g) => Json::obj(vec![
                ("kind", Json::str("binary")),
                ("graph", encode_binary_graph(g)),
            ]),
            ConflictSnapshot::Weighted(g) => Json::obj(vec![
                ("kind", Json::str("weighted")),
                ("graph", encode_weighted_graph(g)),
            ]),
            ConflictSnapshot::AsymmetricBinary(gs) => Json::obj(vec![
                ("kind", Json::str("asymmetric_binary")),
                (
                    "graphs",
                    Json::Arr(gs.iter().map(encode_binary_graph).collect()),
                ),
            ]),
            ConflictSnapshot::AsymmetricWeighted(gs) => Json::obj(vec![
                ("kind", Json::str("asymmetric_weighted")),
                (
                    "graphs",
                    Json::Arr(gs.iter().map(encode_weighted_graph).collect()),
                ),
            ]),
        };
        Json::obj(vec![
            ("num_channels", Json::UInt(self.num_channels as u64)),
            ("rho", Json::Num(self.rho)),
            (
                "ordering",
                Json::Arr(
                    self.ordering
                        .iter()
                        .map(|&v| Json::UInt(v as u64))
                        .collect(),
                ),
            ),
            ("conflicts", conflicts),
            (
                "bidders",
                Json::Arr(self.bidders.iter().map(|b| b.to_json_value()).collect()),
            ),
        ])
        .encode()
    }

    /// Parses a snapshot from JSON text. A snapshot that parses always
    /// [`restore`](Self::restore)s: the dimension checks of
    /// [`AuctionInstance::new`], [`VertexOrdering::from_order`] and the
    /// graph constructors are made here and fail as
    /// [`SnapshotError::Schema`].
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        let json = Json::parse(text)?;
        let conflicts_json = json.get("conflicts")?;
        let conflicts = match conflicts_json.get("kind")?.as_str()? {
            "binary" => {
                ConflictSnapshot::Binary(decode_binary_graph(conflicts_json.get("graph")?)?)
            }
            "weighted" => {
                ConflictSnapshot::Weighted(decode_weighted_graph(conflicts_json.get("graph")?)?)
            }
            "asymmetric_binary" => ConflictSnapshot::AsymmetricBinary(
                conflicts_json
                    .get("graphs")?
                    .as_array()?
                    .iter()
                    .map(decode_binary_graph)
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            "asymmetric_weighted" => ConflictSnapshot::AsymmetricWeighted(
                conflicts_json
                    .get("graphs")?
                    .as_array()?
                    .iter()
                    .map(decode_weighted_graph)
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            other => {
                return Err(SnapshotError::Schema(format!(
                    "unknown conflict kind {other:?}"
                )))
            }
        };
        let snapshot = InstanceSnapshot {
            num_channels: json.get("num_channels")?.as_usize()?,
            rho: json.get("rho")?.as_f64()?,
            ordering: json
                .get("ordering")?
                .as_array()?
                .iter()
                .map(|v| v.as_usize())
                .collect::<Result<Vec<_>, _>>()?,
            conflicts,
            bidders: json
                .get("bidders")?
                .as_array()?
                .iter()
                .map(ValuationSnapshot::from_json_value)
                .collect::<Result<Vec<_>, _>>()?,
        };
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// The conditions [`restore`](Self::restore) asserts, as schema errors.
    fn validate(&self) -> Result<(), SnapshotError> {
        let schema = |message: String| Err(SnapshotError::Schema(message));
        let k = self.num_channels;
        if !(1..=MAX_CHANNELS).contains(&k) {
            return schema(format!("num_channels {k} is outside 1..={MAX_CHANNELS}"));
        }
        if !(self.rho >= 1.0 && self.rho.is_finite()) {
            return schema(format!(
                "rho must be finite and at least 1 (got {})",
                self.rho
            ));
        }
        let n = self.bidders.len();
        for (v, b) in self.bidders.iter().enumerate() {
            if let Err(message) = b.check_channels(k) {
                return schema(format!("bidder {v} {message}"));
            }
        }
        let mut seen = vec![false; n];
        if self.ordering.len() != n
            || self
                .ordering
                .iter()
                .any(|&v| v >= n || std::mem::replace(&mut seen[v], true))
        {
            return schema(format!("ordering is not a permutation of the {n} bidders"));
        }
        // Each graph as (vertex count, largest vertex id it references).
        let binary = |g: &BinaryGraphSnapshot| (g.n, g.edges.iter().map(|&(u, v)| u.max(v)).max());
        let weighted = |g: &WeightedGraphSnapshot| {
            let sources = g.incoming.iter().flatten().map(|&(u, _)| u);
            (g.incoming.len(), sources.max())
        };
        let (asymmetric, graphs) = match &self.conflicts {
            ConflictSnapshot::Binary(g) => (false, vec![binary(g)]),
            ConflictSnapshot::Weighted(g) => (false, vec![weighted(g)]),
            ConflictSnapshot::AsymmetricBinary(gs) => (true, gs.iter().map(binary).collect()),
            ConflictSnapshot::AsymmetricWeighted(gs) => (true, gs.iter().map(weighted).collect()),
        };
        if asymmetric && graphs.len() != k {
            return schema(format!(
                "{} conflict graphs for {k} channels (one per channel required)",
                graphs.len()
            ));
        }
        for (size, largest) in graphs {
            if size != n {
                return schema(format!(
                    "a conflict graph has {size} vertices, the snapshot has {n} bidders"
                ));
            }
            if let Some(u) = largest.filter(|&u| u >= n) {
                return schema(format!("a conflict graph references vertex {u} of {n}"));
            }
        }
        Ok(())
    }
}

fn encode_bit_value_pairs(pairs: &[(u64, f64)]) -> Json {
    Json::Arr(
        pairs
            .iter()
            .map(|&(bits, v)| Json::Arr(vec![Json::UInt(bits), Json::Num(v)]))
            .collect(),
    )
}

fn decode_bit_value_pairs(json: &Json) -> Result<Vec<(u64, f64)>, SnapshotError> {
    json.as_array()?
        .iter()
        .map(|pair| {
            let pair = pair.as_array()?;
            if pair.len() != 2 {
                return Err(SnapshotError::Schema(
                    "expected a [bits, value] pair".into(),
                ));
            }
            Ok((pair[0].as_u64()?, pair[1].as_f64()?))
        })
        .collect()
}

fn encode_f64s(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

fn decode_f64s(json: &Json) -> Result<Vec<f64>, SnapshotError> {
    json.as_array()?.iter().map(|v| v.as_f64()).collect()
}

fn encode_binary_graph(g: &BinaryGraphSnapshot) -> Json {
    Json::obj(vec![
        ("n", Json::UInt(g.n as u64)),
        (
            "edges",
            Json::Arr(
                g.edges
                    .iter()
                    .map(|&(u, v)| Json::Arr(vec![Json::UInt(u as u64), Json::UInt(v as u64)]))
                    .collect(),
            ),
        ),
    ])
}

fn decode_binary_graph(json: &Json) -> Result<BinaryGraphSnapshot, SnapshotError> {
    Ok(BinaryGraphSnapshot {
        n: json.get("n")?.as_usize()?,
        edges: json
            .get("edges")?
            .as_array()?
            .iter()
            .map(|pair| {
                let pair = pair.as_array()?;
                if pair.len() != 2 {
                    return Err(SnapshotError::Schema("expected a [u, v] edge".into()));
                }
                Ok((pair[0].as_usize()?, pair[1].as_usize()?))
            })
            .collect::<Result<Vec<_>, _>>()?,
    })
}

fn encode_weighted_graph(g: &WeightedGraphSnapshot) -> Json {
    Json::obj(vec![(
        "incoming",
        Json::Arr(
            g.incoming
                .iter()
                .map(|row| {
                    Json::Arr(
                        row.iter()
                            .map(|&(u, w)| Json::Arr(vec![Json::UInt(u as u64), Json::Num(w)]))
                            .collect(),
                    )
                })
                .collect(),
        ),
    )])
}

fn decode_weighted_graph(json: &Json) -> Result<WeightedGraphSnapshot, SnapshotError> {
    Ok(WeightedGraphSnapshot {
        incoming: json
            .get("incoming")?
            .as_array()?
            .iter()
            .map(|row| {
                row.as_array()?
                    .iter()
                    .map(|pair| {
                        let pair = pair.as_array()?;
                        if pair.len() != 2 {
                            return Err(SnapshotError::Schema(
                                "expected a [source, weight] pair".into(),
                            ));
                        }
                        Ok((pair[0].as_usize()?, pair[1].as_f64()?))
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?,
    })
}

// ---------------------------------------------------------------------------
// Minimal JSON: exactly what the snapshot schema needs, nothing more.
// Unsigned integers are kept exact (bundle bit masks do not fit f64 above
// 2^53); floats are printed with Rust's shortest round-trip formatting.
// ---------------------------------------------------------------------------

/// A JSON value of the snapshot codec.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    /// An unsigned integer, kept exact.
    UInt(u64),
    /// A (finite) floating-point number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    fn get(&self, key: &str) -> Result<&Json, SnapshotError> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| SnapshotError::Schema(format!("missing field {key:?}"))),
            _ => Err(SnapshotError::Schema(format!(
                "expected an object with field {key:?}"
            ))),
        }
    }

    fn as_str(&self) -> Result<&str, SnapshotError> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(SnapshotError::Schema("expected a string".into())),
        }
    }

    fn as_u64(&self) -> Result<u64, SnapshotError> {
        match self {
            Json::UInt(u) => Ok(*u),
            _ => Err(SnapshotError::Schema("expected an unsigned integer".into())),
        }
    }

    fn as_usize(&self) -> Result<usize, SnapshotError> {
        Ok(self.as_u64()? as usize)
    }

    fn as_f64(&self) -> Result<f64, SnapshotError> {
        match self {
            Json::Num(x) => Ok(*x),
            Json::UInt(u) => Ok(*u as f64),
            _ => Err(SnapshotError::Schema("expected a number".into())),
        }
    }

    fn as_array(&self) -> Result<&[Json], SnapshotError> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(SnapshotError::Schema("expected an array".into())),
        }
    }

    fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Num(x) => {
                debug_assert!(x.is_finite(), "snapshots only encode finite numbers");
                // `{:?}` is Rust's shortest round-trip float form; force a
                // fractional part so the parser can tell floats from ints.
                let s = format!("{x:?}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(key.clone()).encode_into(out);
                    out.push(':');
                    value.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    fn parse(text: &str) -> Result<Json, SnapshotError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_whitespace(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(SnapshotError::Parse {
                offset: pos,
                message: "trailing characters after the JSON value".into(),
            });
        }
        Ok(value)
    }
}

fn skip_whitespace(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), SnapshotError> {
    skip_whitespace(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(SnapshotError::Parse {
            offset: *pos,
            message: format!("expected {:?}", c as char),
        })
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, SnapshotError> {
    skip_whitespace(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_whitespace(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_whitespace(bytes, pos);
                let key = match parse_value(bytes, pos)? {
                    Json::Str(s) => s,
                    _ => {
                        return Err(SnapshotError::Parse {
                            offset: *pos,
                            message: "object keys must be strings".into(),
                        })
                    }
                };
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_whitespace(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => {
                        return Err(SnapshotError::Parse {
                            offset: *pos,
                            message: "expected ',' or '}'".into(),
                        })
                    }
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_whitespace(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_whitespace(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => {
                        return Err(SnapshotError::Parse {
                            offset: *pos,
                            message: "expected ',' or ']'".into(),
                        })
                    }
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'n') => s.push('\n'),
                            _ => {
                                return Err(SnapshotError::Parse {
                                    offset: *pos,
                                    message: "unsupported escape".into(),
                                })
                            }
                        }
                        *pos += 1;
                    }
                    Some(&c) => {
                        // Multi-byte UTF-8 sequences pass through unchanged.
                        let start = *pos;
                        let len = utf8_len(c);
                        *pos += len;
                        let chunk =
                            std::str::from_utf8(&bytes[start..(start + len).min(bytes.len())])
                                .map_err(|_| SnapshotError::Parse {
                                    offset: start,
                                    message: "invalid UTF-8".into(),
                                })?;
                        s.push_str(chunk);
                    }
                    None => {
                        return Err(SnapshotError::Parse {
                            offset: *pos,
                            message: "unterminated string".into(),
                        })
                    }
                }
            }
        }
        Some(&c) if c == b'-' || c.is_ascii_digit() => {
            let start = *pos;
            let mut is_float = false;
            while *pos < bytes.len() {
                match bytes[*pos] {
                    b'0'..=b'9' | b'-' | b'+' => *pos += 1,
                    b'.' | b'e' | b'E' => {
                        is_float = true;
                        *pos += 1;
                    }
                    _ => break,
                }
            }
            let token = std::str::from_utf8(&bytes[start..*pos]).expect("ascii number token");
            if is_float || token.starts_with('-') {
                token
                    .parse::<f64>()
                    .map(Json::Num)
                    .map_err(|e| SnapshotError::Parse {
                        offset: start,
                        message: format!("bad number {token:?}: {e}"),
                    })
            } else {
                token
                    .parse::<u64>()
                    .map(Json::UInt)
                    .map_err(|e| SnapshotError::Parse {
                        offset: start,
                        message: format!("bad integer {token:?}: {e}"),
                    })
            }
        }
        _ => Err(SnapshotError::Parse {
            offset: *pos,
            message: "expected a JSON value".into(),
        }),
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssa_conflict_graph::ConflictGraph;

    fn sample_instance() -> AuctionInstance {
        let g = ConflictGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let bidders: Vec<Arc<dyn Valuation>> = vec![
            Arc::new(XorValuation::new(
                3,
                vec![
                    (ChannelSet::from_channels([0]), 4.25),
                    (ChannelSet::from_channels([1, 2]), 7.5),
                ],
            )),
            Arc::new(TabularValuation::new(
                3,
                vec![
                    (ChannelSet::from_channels([2]), 3.0),
                    (ChannelSet::from_channels([0, 1]), 9.125),
                ],
            )),
            Arc::new(AdditiveValuation::new(vec![1.0, 2.0, 3.0])),
            Arc::new(BudgetedAdditiveValuation::new(vec![4.0, 4.0, 4.0], 6.5)),
        ];
        AuctionInstance::new(
            3,
            bidders,
            ConflictStructure::Binary(g),
            VertexOrdering::from_order(vec![2, 0, 3, 1]),
            1.0,
        )
    }

    #[test]
    fn instance_round_trips_through_json() {
        let instance = sample_instance();
        let snapshot = InstanceSnapshot::of(&instance).unwrap();
        let json = snapshot.to_json();
        let parsed = InstanceSnapshot::from_json(&json).unwrap();
        assert_eq!(snapshot, parsed);

        let restored = parsed.restore();
        assert_eq!(restored.num_bidders(), instance.num_bidders());
        assert_eq!(restored.num_channels, instance.num_channels);
        assert_eq!(restored.rho, instance.rho);
        assert_eq!(restored.ordering.as_order(), instance.ordering.as_order());
        // behavioral equality on every bundle
        for v in 0..instance.num_bidders() {
            for bundle in ChannelSet::all_bundles(3) {
                assert_eq!(instance.value(v, bundle), restored.value(v, bundle));
            }
        }
        // snapshotting the restored instance is a fixed point
        assert_eq!(InstanceSnapshot::of(&restored).unwrap(), snapshot);
    }

    #[test]
    fn weighted_and_asymmetric_structures_round_trip() {
        let mut wg = WeightedConflictGraph::new(3);
        wg.set_weight(0, 1, 0.25);
        wg.set_weight(1, 0, 0.5);
        wg.set_weight(2, 1, 0.125);
        let snap = ConflictSnapshot::of(&ConflictStructure::Weighted(wg.clone()));
        match snap.restore() {
            ConflictStructure::Weighted(restored) => {
                for u in 0..3 {
                    for v in 0..3 {
                        assert_eq!(restored.weight(u, v), wg.weight(u, v));
                    }
                }
            }
            _ => panic!("expected a weighted structure"),
        }

        let g0 = ConflictGraph::from_edges(3, &[(0, 1)]);
        let g1 = ConflictGraph::from_edges(3, &[(1, 2)]);
        let snap = ConflictSnapshot::of(&ConflictStructure::AsymmetricBinary(vec![
            g0.clone(),
            g1.clone(),
        ]));
        match snap.restore() {
            ConflictStructure::AsymmetricBinary(gs) => {
                assert!(gs[0].has_edge(0, 1) && !gs[0].has_edge(1, 2));
                assert!(gs[1].has_edge(1, 2) && !gs[1].has_edge(0, 1));
            }
            _ => panic!("expected an asymmetric structure"),
        }
    }

    #[test]
    fn canonical_bytes_are_order_insensitive() {
        let a = ValuationSnapshot::Xor {
            num_channels: 2,
            bids: vec![(1, 4.0), (2, 7.0)],
        };
        let b = ValuationSnapshot::Xor {
            num_channels: 2,
            bids: vec![(2, 7.0), (1, 4.0)],
        };
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        let c = ValuationSnapshot::Xor {
            num_channels: 2,
            bids: vec![(2, 7.0), (1, 4.0000001)],
        };
        assert_ne!(a.canonical_bytes(), c.canonical_bytes());
    }

    #[test]
    fn tabular_snapshots_are_deterministic_despite_hash_order() {
        let entries: Vec<(ChannelSet, f64)> = (0..32u64)
            .map(|b| (ChannelSet::from_bits(b), b as f64 * 0.5))
            .collect();
        let v1 = TabularValuation::new(6, entries.clone());
        let v2 = TabularValuation::new(6, entries.into_iter().rev().collect());
        assert_eq!(v1.snapshot(), v2.snapshot());
    }

    #[test]
    fn extreme_floats_and_wide_masks_survive_the_codec() {
        let snapshot = ValuationSnapshot::Tabular {
            num_channels: 64,
            entries: vec![
                (u64::MAX, 1.0e-300),
                (1u64 << 63, std::f64::consts::PI),
                (0, f64::MIN_POSITIVE),
            ],
        };
        let json = snapshot.to_json_value().encode();
        let parsed = ValuationSnapshot::from_json_value(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(snapshot, parsed);
    }

    #[test]
    fn parse_errors_are_reported_not_panicked() {
        assert!(matches!(
            InstanceSnapshot::from_json("{"),
            Err(SnapshotError::Parse { .. })
        ));
        assert!(matches!(
            InstanceSnapshot::from_json("{\"num_channels\":1}"),
            Err(SnapshotError::Schema(_))
        ));
        assert!(matches!(
            InstanceSnapshot::from_json("[1,2,3] junk"),
            Err(SnapshotError::Parse { .. })
        ));
    }
}
