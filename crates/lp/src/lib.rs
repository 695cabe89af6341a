//! A self-contained linear-programming toolkit for the spectrum-auction
//! reproduction.
//!
//! The SPAA 2011 paper solves its LP relaxations (which have exponentially
//! many variables) with the ellipsoid method and demand-oracle separation.
//! Mature LP solver bindings are not available in this environment, so this
//! crate implements the required machinery from scratch:
//!
//! * [`problem::LinearProgram`] — a sparse LP model (maximize or minimize,
//!   `≤` / `≥` / `=` constraints, non-negative variables) with a
//!   compressed-sparse-column view ([`problem::CscMatrix`]) of the
//!   constraint matrix,
//! * [`simplex`] — a sparse **revised** two-phase primal simplex engine:
//!   candidate-list primal steepest-edge pricing ([`pricing`]) over a
//!   Markowitz-ordered LU with Forrest–Tomlin `U`-updates and periodic
//!   refactorization ([`basis`]), with Bland's rule as the anti-cycling
//!   override after stalled pivots. The engine reports dual values, which
//!   the auction code turns into bidder-specific channel prices
//!   (Section 2.2 of the paper); the original dense tableau solver is kept
//!   as the reference oracle in [`dense`],
//! * [`column_generation`] — a restricted-master / pricing loop that replaces
//!   the ellipsoid method: the pricing oracle sees the current duals and
//!   returns improving columns (in the auction: demand-oracle queries at the
//!   prices `p_{v,j} = Σ_{u : v ∈ Γπ(u)} y_{u,j}`), which is the textbook
//!   dual view of the paper's separation-based approach. Master re-solves
//!   are **warm-started** from the previous round's optimal basis. This is
//!   the one way the auction solves its relaxation: a single master over
//!   all `(v, j)` and bidder rows, priced by the bidders' demand oracles,
//! * [`dual`] — a **dual simplex** on the same basis factorization:
//!   after rows are appended to a solved master
//!   ([`column_generation::MasterProblem::add_row`]) the old basis extended
//!   by the new rows' logicals is dual feasible, and
//!   [`dual::reoptimize_after_row_additions`] repairs primal feasibility
//!   from there instead of re-solving from scratch.
//!
//! All of the paper's relaxations are *packing* LPs (non-negative data,
//! `≤` constraints), for which the all-slack basis is feasible and phase 1
//! is skipped automatically; the general two-phase path exists for the
//! Lavi–Swamy decomposition LP which contains equality constraints.
//!
//! # Solve-pipeline data flow (hyper-sparse kernels)
//!
//! Per pivot, the revised engine moves two vectors through the basis
//! factorization, and both stay **indexed** end to end when the inputs
//! allow it:
//!
//! 1. **FTRAN** — the entering column `Aₑ` (a handful of non-zeros in the
//!    packing shape) is solved as `w = B⁻¹Aₑ` by Gilbert–Peierls: a DFS
//!    over the triangular factors' graphs computes the symbolic reachable
//!    set of the RHS support first, then numeric elimination touches only
//!    those rows. The result arrives in a [`basis::SparseVector`] — dense
//!    value array plus a non-zero pattern — and flows *as a sparse
//!    vector* into the ratio test ([`simplex`]), the basis update
//!    (Forrest–Tomlin spike construction over the pattern only), and the
//!    steepest-edge reference updates ([`pricing`]).
//! 2. **BTRAN** — the pivot row `ρ = eₗᵀB⁻¹` is solved the same way
//!    through the transposed factors and drives the pricing-weight and
//!    incremental dual updates; the [`dual`] simplex scatters it against
//!    a row-major matrix view to form its ratio-test row sparsely.
//!
//! When the DFS discovers the reachable set has grown past ~`m/4` the
//! kernel **densifies**: it falls back to the dense triangular solve and
//! the `SparseVector` degrades gracefully to a dense result (its pattern
//! is dropped, consumers iterate the full length). Every indexed solve is
//! counted — [`SolveStats`] reports sparse hits, dense fallbacks, and the
//! average result density. [`SolveStats::merge`] is the one place solves
//! are summed: a column-generation run merges its master re-solves into
//! [`ColumnGenerationResult::stats`], and the layers above embed that
//! record unchanged.
//!
//! The ratio tests are **two-pass Harris** tests (primal in [`simplex`],
//! dual in [`dual`]): the first pass relaxes the bound by a feasibility
//! tolerance to find the best attainable step, the second picks the
//! largest-magnitude eligible pivot within that step, and a relative
//! pivot floor (`10⁻⁷ · max |wᵣ|`) rejects numerically tiny pivots by
//! forcing an early refactorization instead of pivoting on noise.

#![warn(missing_docs)]

pub mod basis;
pub mod column_generation;
pub mod dense;
pub mod dual;
pub mod pricing;
pub mod problem;
pub mod simplex;

pub use basis::{ForrestTomlinLu, SparseVector, SparsityStats};
pub use column_generation::{
    is_native_tag, is_relief_tag, ColumnGeneration, ColumnGenerationError, ColumnGenerationResult,
    ColumnPool, ColumnSource, CompactionReport, GeneratedColumn, MasterProblem, PooledColumn,
    DEAD_COLUMN_TAG_BASE, DEFAULT_POOL_CAPACITY, ROW_RELIEF_TAG_BASE,
};
pub use dual::{reoptimize_after_row_additions, DualReoptimization};
pub use pricing::SteepestEdgePricing;
pub use problem::{Compaction, Constraint, CscMatrix, LinearProgram, Relation, RowState, Sense};
pub use simplex::{
    solve, solve_with_warm_start, BasisVar, LpSolution, LpStatus, SimplexOptions, SolveStats,
    WarmStart,
};
