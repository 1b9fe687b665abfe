//! **Communication topologies**: restricting the contact graph of the
//! random phone call model.
//!
//! The base model (and every experiment before E11) hardwires the
//! *complete* graph: a `Random` target is a uniformly random other node,
//! and a `Direct` target — the paper's direct-addressing assumption —
//! reaches any node whose ID the caller has learned. This module makes
//! the contact graph a first-class, seeded, validated knob:
//!
//! * a [`Topology`] names a graph family (`Ring`, `Torus2D`,
//!   `RandomRegular`, `ErdosRenyi`, `WattsStrogatz`,
//!   `PreferentialAttachment`, or an explicit [`Topology::FromAdjacency`]
//!   edge list — the bridge from `gossip-lowerbound`'s `Graph`);
//! * [`Topology::build`] materializes it **once** as a CSR
//!   [`Adjacency`], deterministically from a seed, regenerating with a
//!   derived seed until the graph is connected (random families can
//!   draw disconnected instances; a disconnected contact graph makes
//!   every broadcast trivially unwinnable);
//! * [`DirectAddressing`] picks the *reading* of the paper on a
//!   restricted graph: [`DirectAddressing::Overlay`] lets learned-ID
//!   calls cross the graph (the topology shapes who you *meet*, but any
//!   learned address is routable — the IP-network reading), while
//!   [`DirectAddressing::Restricted`] confines direct calls to edges
//!   (the address is only usable if a physical link exists).
//!
//! With a non-complete topology installed
//! ([`crate::Network::set_topology`]), a `Random` target becomes a
//! uniformly random **alive neighbor** — crashed neighbors leave the
//! contact distribution and recovered ones re-enter it, modelling a
//! failed link-layer handshake that the caller retries within the
//! round. The neighbor draws come from their own seed-derived stream,
//! and `Topology::Complete` installs nothing at all, so complete-graph
//! runs stay bit-identical to builds that predate this module — every
//! pre-topology golden digest still holds.
//!
//! Everything here follows the [`crate::ChurnConfig`] contract: validated
//! knobs that name the offending field, determinism per `(config,
//! seed)`, and no per-round allocation (the adjacency is built once;
//! sampling scans a CSR row).

use serde::{Deserialize, Serialize};

use crate::bitset::BitSet;
use crate::id::NodeIdx;
use crate::rng::{derive_seed, rng_from_seed};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// How direct addressing interacts with a restricted contact graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DirectAddressing {
    /// Learned-ID calls may cross the graph: the topology constrains only
    /// the *address-oblivious* (`Random`) contacts, while any learned
    /// address is routable — gossip over an IP network whose peer
    /// sampling is topology-bound. This is the default, and the setting
    /// under which the paper's direct-addressing advantage is expected
    /// to survive sparsification.
    #[default]
    Overlay,
    /// Learned-ID calls are confined to edges: a direct call to a
    /// non-neighbor is lost in the void (the attempt is still charged,
    /// exactly like a call to an unknown address). Address knowledge
    /// without a link is worthless here, so this is the setting where
    /// the `log log n` advantage can collapse.
    Restricted,
}

impl DirectAddressing {
    /// Stable lowercase label (the JSON value of the `"addressing"` knob).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DirectAddressing::Overlay => "overlay",
            DirectAddressing::Restricted => "restricted",
        }
    }

    /// Parses a [`Self::label`] (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid labels for anything else.
    pub fn parse(label: &str) -> Result<Self, String> {
        match label.to_ascii_lowercase().as_str() {
            "overlay" => Ok(DirectAddressing::Overlay),
            "restricted" => Ok(DirectAddressing::Restricted),
            other => Err(format!(
                "addressing mode wants \"overlay\" or \"restricted\", got {other:?}"
            )),
        }
    }
}

/// A communication-graph family with its knobs. The default —
/// [`Topology::Complete`] — is the base model and installs nothing.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum Topology {
    /// The complete graph: the paper's base model. Never materialized;
    /// installing it leaves the engine on its original sampling path,
    /// bit-identical to pre-topology builds.
    #[default]
    Complete,
    /// A cycle: node `i` is linked to `i ± 1 (mod n)`. Degree 2,
    /// diameter `⌊n/2⌋` — the sparsest connected extreme.
    Ring,
    /// A 2-D torus on an `r × c` grid with `r·c = n`, `r` the largest
    /// divisor of `n` at most `√n`. Degree ≤ 4, diameter `Θ(√n)` for
    /// near-square factorizations; a prime `n` degenerates to a ring.
    Torus2D,
    /// A uniformly random simple `d`-regular graph (pairing model with
    /// stub repair). Diameter `Θ(log n / log (d-1))` — the classic
    /// expander-like testbed. `n·d` must be even.
    RandomRegular(u32),
    /// An Erdős–Rényi `G(n, p)`: each pair is an edge independently
    /// with probability `p`. Connected instances require roughly
    /// `p ≳ ln n / n`; sparser settings exhaust the regeneration budget
    /// and panic rather than silently running a partitioned broadcast.
    ErdosRenyi(f64),
    /// A Watts–Strogatz small world: a ring lattice where every node
    /// links to its `k/2` nearest neighbors per side (`k` even), each
    /// lattice edge rewired with probability `beta`.
    WattsStrogatz(u32, f64),
    /// A Barabási–Albert preferential-attachment graph: nodes arrive one
    /// at a time and link to `m` distinct existing nodes with
    /// probability proportional to degree (seeded from an `(m+1)`-clique).
    /// Heavy-tailed degrees — the hub-and-spoke stress test for fan-in.
    PreferentialAttachment(u32),
    /// An explicit adjacency list (one neighbor list per node; treated
    /// as undirected and symmetrized). The bridge from
    /// `gossip-lowerbound`'s `Graph` and from any external edge list.
    /// Exempt from the connectivity requirement — a supplied graph is
    /// used as-is, partitions included.
    FromAdjacency(Vec<Vec<u32>>),
    /// A real-graph snapshot loaded from a SNAP-style edge-list file
    /// (see [`crate::dataset`]): whitespace-separated node-id pairs,
    /// `#` comments, arbitrary non-contiguous ids. Parsed once and
    /// memoized in a binary CSR cache next to the source file. Like
    /// [`Topology::FromAdjacency`], the snapshot is used as-is —
    /// exempt from the connectivity requirement.
    FromFile(String),
}

/// Attempts per [`Topology::build`] before concluding the knobs cannot
/// produce a connected graph at this `n`.
const BUILD_ATTEMPTS: u64 = 64;

/// Stream label for regeneration draws: retries run on
/// `derive_seed(derive_seed(seed, RETRY_STREAM), attempt)` so the
/// attempt counter never walks through labels other streams own on the
/// shared scenario seed (attempt values 1..=6 would otherwise collide
/// with the engine's reserved streams). The first draw stays on
/// `derive_seed(seed, 0)`, which it has always used.
const RETRY_STREAM: u64 = 0x7e7a;

impl Topology {
    /// Stable family name (also the `--topo` CLI name; matching is case-
    /// and separator-insensitive).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Topology::Complete => "Complete",
            Topology::Ring => "Ring",
            Topology::Torus2D => "Torus2D",
            Topology::RandomRegular(_) => "RandomRegular",
            Topology::ErdosRenyi(_) => "ErdosRenyi",
            Topology::WattsStrogatz(..) => "WattsStrogatz",
            Topology::PreferentialAttachment(_) => "PreferentialAttachment",
            Topology::FromAdjacency(_) => "FromAdjacency",
            Topology::FromFile(_) => "FromFile",
        }
    }

    /// Whether this is the complete graph (the base model; nothing is
    /// materialized or installed for it).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, Topology::Complete)
    }

    /// Validates every knob, naming the offending one in the error
    /// (the [`crate::ChurnConfig::validate`] convention).
    ///
    /// # Errors
    ///
    /// Returns a message like
    /// `topology knob "degree" wants an integer >= 2, got 1` for the
    /// first invalid knob. Knobs that depend on `n` (e.g. `degree < n`)
    /// are checked by [`Topology::build`] instead.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Topology::Complete | Topology::Ring | Topology::Torus2D => Ok(()),
            Topology::RandomRegular(d) => {
                if *d < 2 {
                    return Err(format!(
                        "topology knob \"degree\" wants an integer >= 2 (degree-1 graphs are disconnected matchings), got {d}"
                    ));
                }
                Ok(())
            }
            Topology::ErdosRenyi(p) => {
                if !(*p > 0.0 && *p <= 1.0) {
                    return Err(format!(
                        "topology knob \"p\" wants a probability in (0, 1], got {p}"
                    ));
                }
                Ok(())
            }
            Topology::WattsStrogatz(k, beta) => {
                if *k < 2 || *k % 2 != 0 {
                    return Err(format!(
                        "topology knob \"k\" wants an even integer >= 2, got {k}"
                    ));
                }
                if !(0.0..=1.0).contains(beta) {
                    return Err(format!(
                        "topology knob \"beta\" wants a probability in [0, 1], got {beta}"
                    ));
                }
                Ok(())
            }
            Topology::PreferentialAttachment(m) => {
                if *m < 1 {
                    return Err(format!(
                        "topology knob \"m\" wants an integer >= 1, got {m}"
                    ));
                }
                Ok(())
            }
            Topology::FromAdjacency(lists) => {
                if lists.is_empty() {
                    return Err(
                        "topology knob \"adjacency\" wants at least one node's neighbor list"
                            .to_string(),
                    );
                }
                Ok(())
            }
            Topology::FromFile(path) => {
                if path.trim().is_empty() {
                    return Err(
                        "topology knob \"path\" wants a non-empty edge-list file path".to_string(),
                    );
                }
                Ok(())
            }
        }
    }

    /// Materializes the topology for `n` nodes as a CSR [`Adjacency`],
    /// or `None` for [`Topology::Complete`] (which has no materialized
    /// form — the engine keeps its original uniform sampling).
    ///
    /// Deterministic per `(topology, n, seed)`. Random families draw
    /// their first attempt from `derive_seed(seed, 0)` and regenerate
    /// on a dedicated retry stream (`derive_seed(derive_seed(seed,
    /// RETRY_STREAM), attempt)`) when an attempt comes out disconnected
    /// (or, for the pairing model, unpairable), so callers always
    /// receive a connected graph without the attempt counter ever
    /// touching labels other streams own on the scenario seed.
    /// [`Topology::FromAdjacency`] is used verbatim.
    ///
    /// # Panics
    ///
    /// Panics if the config fails [`Topology::validate`], if an
    /// `n`-dependent constraint fails (`degree < n`, `n·degree` even,
    /// `k < n`, `m < n`, adjacency length/indices), or if no connected
    /// instance emerges within the regeneration budget — all with the
    /// offending knob named.
    #[must_use]
    pub fn build(&self, n: usize, seed: u64) -> Option<Adjacency> {
        if let Err(e) = self.validate() {
            panic!("invalid topology: {e}");
        }
        if self.is_complete() {
            return None;
        }
        assert!(n >= 2, "a contact graph needs at least two nodes, got {n}");
        self.check_against_n(n);
        if let Topology::FromAdjacency(lists) = self {
            assert_eq!(
                lists.len(),
                n,
                "topology knob \"adjacency\" describes {} nodes but the network has {n}",
                lists.len()
            );
            let adj = Adjacency::from_lists(lists.clone())
                .unwrap_or_else(|e| panic!("invalid topology: {e}"));
            return Some(adj);
        }
        if let Topology::FromFile(path) = self {
            let adj =
                crate::dataset::load(path).unwrap_or_else(|e| panic!("invalid topology: {e}"));
            assert_eq!(
                adj.len(),
                n,
                "topology knob \"path\": {path:?} describes {} nodes but the network has {n}",
                adj.len()
            );
            return Some(adj);
        }
        for attempt in 0..BUILD_ATTEMPTS {
            // First draw on the long-established label 0; retries on a
            // dedicated derived stream (see `RETRY_STREAM`).
            let mut rng = rng_from_seed(if attempt == 0 {
                derive_seed(seed, 0)
            } else {
                derive_seed(derive_seed(seed, RETRY_STREAM), attempt)
            });
            let lists = match self {
                Topology::Ring => Some(ring(n)),
                Topology::Torus2D => Some(torus2d(n)),
                Topology::RandomRegular(d) => random_regular(n, *d as usize, &mut rng),
                Topology::ErdosRenyi(p) => Some(erdos_renyi(n, *p, &mut rng)),
                Topology::WattsStrogatz(k, beta) => {
                    Some(watts_strogatz(n, *k as usize, *beta, &mut rng))
                }
                Topology::PreferentialAttachment(m) => {
                    Some(preferential_attachment(n, *m as usize, &mut rng))
                }
                Topology::Complete | Topology::FromAdjacency(_) | Topology::FromFile(_) => {
                    unreachable!()
                }
            };
            if let Some(lists) = lists {
                let adj = Adjacency::from_lists(lists)
                    .expect("generators emit in-range, loop-free edges");
                if adj.is_connected() {
                    return Some(adj);
                }
            }
        }
        panic!(
            "topology {} failed to produce a connected graph on n = {n} in {BUILD_ATTEMPTS} attempts; raise its density knobs",
            self.describe()
        );
    }

    /// `n`-dependent knob checks shared by [`Topology::build`].
    fn check_against_n(&self, n: usize) {
        match self {
            Topology::RandomRegular(d) => {
                assert!(
                    (*d as usize) < n,
                    "topology knob \"degree\" wants degree < n, got degree {d} on n = {n}"
                );
                assert!(
                    (n * (*d as usize)).is_multiple_of(2),
                    "topology knob \"degree\" wants n * degree even (stubs must pair up), got degree {d} on n = {n}"
                );
            }
            Topology::WattsStrogatz(k, _) => {
                assert!(
                    (*k as usize) < n,
                    "topology knob \"k\" wants k < n, got k {k} on n = {n}"
                );
            }
            Topology::PreferentialAttachment(m) => {
                assert!(
                    (*m as usize) < n,
                    "topology knob \"m\" wants m < n, got m {m} on n = {n}"
                );
            }
            _ => {}
        }
    }

    /// Human-readable name with knob values, e.g. `RandomRegular(d=8)`.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Topology::Complete | Topology::Ring | Topology::Torus2D => self.name().to_string(),
            Topology::RandomRegular(d) => format!("RandomRegular(d={d})"),
            Topology::ErdosRenyi(p) => format!("ErdosRenyi(p={p})"),
            Topology::WattsStrogatz(k, beta) => format!("WattsStrogatz(k={k}, beta={beta})"),
            Topology::PreferentialAttachment(m) => format!("PreferentialAttachment(m={m})"),
            Topology::FromAdjacency(lists) => format!("FromAdjacency({} nodes)", lists.len()),
            Topology::FromFile(path) => format!("FromFile({path})"),
        }
    }

    /// The CLI catalog: `(spec, description)` per selectable family, in
    /// listing order. [`Topology::FromAdjacency`] is programmatic-only
    /// and deliberately absent.
    #[must_use]
    pub fn catalog() -> &'static [(&'static str, &'static str)] {
        &[
            ("complete", "the base model: every pair is an edge"),
            ("ring", "cycle, degree 2, diameter n/2"),
            ("torus2d", "2-D torus grid, degree <= 4, diameter ~sqrt(n)"),
            (
                "random-regular[:d]",
                "random simple d-regular graph (default d = 8)",
            ),
            (
                "erdos-renyi[:p]",
                "G(n, p) random graph (default p = 0.05; needs p >~ ln n / n)",
            ),
            (
                "watts-strogatz[:k,beta]",
                "small world: k-lattice, beta rewiring (default 6, 0.2)",
            ),
            (
                "preferential-attachment[:m]",
                "Barabasi-Albert scale-free, m links per arrival (default m = 4)",
            ),
            (
                "file:<path>",
                "SNAP-style edge list loaded from <path> (cached as <path>.csrcache)",
            ),
        ]
    }

    /// Parses a `--topo` spec: a catalog name, optionally followed by
    /// `:param[,param]` numeric knobs. Name matching is case- and
    /// separator-insensitive (`random-regular:8`, `RandomRegular:8` and
    /// `random_regular:8` agree); omitted knobs take the catalog
    /// defaults. The one non-numeric spec is `file:<path>`, which loads
    /// a SNAP-style edge list via [`crate::dataset`]; the path after
    /// the first `:` is kept verbatim.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid topology specs for an
    /// unknown family, and a knob-shaped message (via
    /// [`Topology::validate`]) for unparsable or out-of-range knobs.
    pub fn parse_spec(spec: &str) -> Result<Topology, String> {
        let (name, params) = match spec.split_once(':') {
            Some((n, p)) => (n, Some(p)),
            None => (spec, None),
        };
        // `file:` keeps its payload verbatim — a path is case- and
        // separator-sensitive, unlike the family names (and may itself
        // contain `:` or `,`), so it bypasses the knob machinery.
        if name.eq_ignore_ascii_case("file") {
            let topo = Topology::FromFile(params.unwrap_or("").trim().to_string());
            topo.validate()?;
            return Ok(topo);
        }
        let key = crate::normalize_name(name);
        let knobs: Vec<&str> = params
            .unwrap_or("")
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();
        let mut used = 0usize;
        let mut knob = |what: &str, default: f64| -> Result<f64, String> {
            match knobs.get(used) {
                None => Ok(default),
                Some(raw) => {
                    used += 1;
                    raw.parse::<f64>()
                        .map_err(|_| format!("topology knob {what:?} wants a number, got {raw:?}"))
                }
            }
        };
        // Integer knobs parse exactly, not via an `as` cast: `8.9` must
        // not silently run a different graph, and `-3` must not saturate
        // into a misleading range error.
        let int = |what: &str, v: f64| -> Result<u32, String> {
            if v.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(&v) {
                Ok(v as u32)
            } else {
                Err(format!("topology knob {what:?} wants an integer, got {v}"))
            }
        };
        let topo = match key.as_str() {
            "complete" => Topology::Complete,
            "ring" => Topology::Ring,
            "torus2d" | "torus" => Topology::Torus2D,
            "randomregular" => Topology::RandomRegular(int("degree", knob("degree", 8.0)?)?),
            "erdosrenyi" => Topology::ErdosRenyi(knob("p", 0.05)?),
            "wattsstrogatz" => {
                Topology::WattsStrogatz(int("k", knob("k", 6.0)?)?, knob("beta", 0.2)?)
            }
            "preferentialattachment" => {
                Topology::PreferentialAttachment(int("m", knob("m", 4.0)?)?)
            }
            _ => {
                let names: Vec<&str> = Self::catalog().iter().map(|(s, _)| *s).collect();
                return Err(format!(
                    "unknown topology {name:?}; valid specs (case-insensitive): {}",
                    names.join(", ")
                ));
            }
        };
        if let Some(extra) = knobs.get(used) {
            return Err(format!("topology {name:?} got an extra knob {extra:?}"));
        }
        topo.validate()?;
        Ok(topo)
    }
}

/// A materialized undirected graph in CSR form: one sorted neighbor row
/// per node, built once at install time so the round loop never
/// allocates or chases pointers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Adjacency {
    /// Row offsets into `neighbors`; length `n + 1`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor rows.
    neighbors: Vec<u32>,
}

impl Adjacency {
    /// Builds from per-node neighbor lists: bounds-checks every index,
    /// symmetrizes (an edge listed on either endpoint counts for both),
    /// deduplicates parallel edges and rejects self-loops via
    /// [`normalize_adjacency`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the out-of-range neighbor or the
    /// self-looped node, if any.
    pub fn from_lists(mut lists: Vec<Vec<u32>>) -> Result<Self, String> {
        let n = lists.len();
        for (v, row) in lists.iter().enumerate() {
            for &u in row {
                if u as usize >= n {
                    return Err(format!(
                        "adjacency lists node {v} as neighbor of {u}, outside 0..{n}"
                    ));
                }
            }
        }
        // Symmetrize: mirror every listed edge, then normalize once.
        for v in 0..n {
            for i in 0..lists[v].len() {
                let u = lists[v][i] as usize;
                if u != v {
                    lists[u].push(v as u32);
                }
            }
        }
        normalize_adjacency(&mut lists)?;
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for row in &lists {
            neighbors.extend_from_slice(row);
            offsets.push(neighbors.len() as u32);
        }
        Ok(Adjacency { offsets, neighbors })
    }

    /// Rebuilds from raw CSR arrays (the [`crate::dataset`] cache
    /// path), re-validating every structural invariant the rest of the
    /// crate relies on: `offsets` starts at 0, is non-decreasing, and
    /// ends at `neighbors.len()`; every row is strictly increasing
    /// (sorted, duplicate-free, binary-searchable) with in-range,
    /// non-self neighbors.
    ///
    /// Symmetry is *not* re-checked here — the arrays are only ever
    /// serialized from an already-symmetrized [`Adjacency`], and the
    /// cache layer's checksum catches bit rot.
    pub(crate) fn from_csr(offsets: Vec<u32>, neighbors: Vec<u32>) -> Result<Self, String> {
        if offsets.first() != Some(&0) {
            return Err("CSR offsets must start at 0".to_string());
        }
        let n = offsets.len() - 1;
        if offsets.last().copied().unwrap_or(0) as usize != neighbors.len() {
            return Err(format!(
                "CSR offsets end at {} but there are {} neighbor entries",
                offsets.last().unwrap(),
                neighbors.len()
            ));
        }
        for v in 0..n {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            if lo > hi {
                return Err(format!("CSR offsets decrease at node {v}"));
            }
            let row = &neighbors[lo..hi];
            for (i, &u) in row.iter().enumerate() {
                if u as usize >= n {
                    return Err(format!(
                        "adjacency lists node {v} as neighbor of {u}, outside 0..{n}"
                    ));
                }
                if u as usize == v {
                    return Err(format!(
                        "adjacency lists node {v} as its own neighbor (self-loop)"
                    ));
                }
                if i > 0 && row[i - 1] >= u {
                    return Err(format!("CSR row of node {v} is not strictly increasing"));
                }
            }
        }
        Ok(Adjacency { offsets, neighbors })
    }

    /// The raw CSR row-offset array (length `n + 1`), for serialization.
    pub(crate) fn raw_offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw concatenated neighbor rows, for serialization.
    pub(crate) fn raw_neighbors(&self) -> &[u32] {
        &self.neighbors
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sorted neighbor row of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let (lo, hi) = (self.offsets[v as usize], self.offsets[v as usize + 1]);
        &self.neighbors[lo as usize..hi as usize]
    }

    /// Degree of `v`.
    #[must_use]
    pub fn degree(&self, v: u32) -> usize {
        self.neighbors(v).len()
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Maximum degree over all nodes.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        (0..self.len() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Whether `{u, v}` is an edge (`O(log deg)` binary search — this is
    /// the per-message check of [`DirectAddressing::Restricted`]).
    #[must_use]
    pub fn contains_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Whether the graph is connected (BFS from node 0).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let n = self.len();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::with_capacity(n);
        seen[0] = true;
        queue.push_back(0u32);
        let mut reached = 1usize;
        while let Some(v) = queue.pop_front() {
            for &u in self.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    reached += 1;
                    queue.push_back(u);
                }
            }
        }
        reached == n
    }

    /// The adjacency back as per-node neighbor lists (for bridging into
    /// other graph representations, e.g. `gossip-lowerbound::Graph`).
    #[must_use]
    pub fn to_lists(&self) -> Vec<Vec<u32>> {
        (0..self.len() as u32)
            .map(|v| self.neighbors(v).to_vec())
            .collect()
    }

    /// Samples a uniformly random **alive** neighbor of `src`, or `None`
    /// when every neighbor is down (the node sits the round out).
    ///
    /// Exactly one RNG draw per call with at least one alive neighbor
    /// (and zero draws otherwise), so the stream stays stable under
    /// engine refactors; two `O(deg)` scans, no allocation.
    #[must_use]
    pub fn sample_alive_neighbor(
        &self,
        rng: &mut SmallRng,
        src: NodeIdx,
        alive: &BitSet,
    ) -> Option<NodeIdx> {
        let row = self.neighbors(src.0);
        let alive_deg = row.iter().filter(|&&u| alive.get(u as usize)).count();
        if alive_deg == 0 {
            return None;
        }
        let pick = rng.gen_range(0..alive_deg);
        let mut seen = 0;
        for &u in row {
            if alive.get(u as usize) {
                if seen == pick {
                    return Some(NodeIdx(u));
                }
                seen += 1;
            }
        }
        unreachable!("pick < alive_deg");
    }
}

/// Normalizes raw adjacency lists in place — sorts and deduplicates
/// every row (parallel edges collapse to one), bounds-checks indices,
/// rejects self-loops — and returns the undirected edge count. The one
/// shared validation behind [`Adjacency::from_lists`] and
/// `gossip-lowerbound`'s `Graph::finish`.
///
/// Self-loops are an *error*, not a cleanup: a raw edge list that
/// mentions `v v` is either corrupt or needs an ingestion layer that
/// decides what loops mean (the SNAP parser in [`crate::dataset`]
/// drops loop *lines* and counts them before ever reaching here).
/// Silently eating them would hide both.
///
/// The caller is responsible for symmetry (either by construction, as
/// `Graph::add_edge` does, or via [`Adjacency::from_lists`]'s mirror
/// pass).
///
/// # Errors
///
/// Returns a message naming the out-of-range neighbor or the
/// self-looped node, if any.
pub fn normalize_adjacency(lists: &mut [Vec<u32>]) -> Result<usize, String> {
    let n = lists.len();
    let mut half_edges = 0usize;
    for (v, row) in lists.iter_mut().enumerate() {
        for &u in row.iter() {
            if u as usize >= n {
                return Err(format!(
                    "adjacency lists node {v} as neighbor of {u}, outside 0..{n}"
                ));
            }
            if u as usize == v {
                return Err(format!(
                    "adjacency lists node {v} as its own neighbor (self-loop)"
                ));
            }
        }
        row.sort_unstable();
        row.dedup();
        half_edges += row.len();
    }
    Ok(half_edges / 2)
}

// ----------------------------------------------------------------------
// Generators. Each returns raw (possibly asymmetric-free, loop-free)
// neighbor lists; `build` symmetrizes, normalizes and connectivity-
// checks them through `Adjacency::from_lists`.
// ----------------------------------------------------------------------

fn ring(n: usize) -> Vec<Vec<u32>> {
    let mut lists = vec![Vec::with_capacity(2); n];
    for (v, row) in lists.iter_mut().enumerate() {
        row.push(((v + 1) % n) as u32);
    }
    lists
}

/// Factorizes `n` as `r × c` with `r` the largest divisor at most `√n`
/// (a prime `n` yields `1 × n`, i.e. a ring).
fn torus2d(n: usize) -> Vec<Vec<u32>> {
    let mut rows = 1;
    let mut r = (n as f64).sqrt().floor() as usize;
    while r >= 1 {
        if n.is_multiple_of(r) {
            rows = r;
            break;
        }
        r -= 1;
    }
    let cols = n / rows;
    let mut lists = vec![Vec::with_capacity(4); n];
    let at = |r: usize, c: usize| (r * cols + c) as u32;
    for r in 0..rows {
        for c in 0..cols {
            // A 1-wide dimension has no wrap edge — `(c + 1) % 1` would
            // be a self-loop, which `normalize_adjacency` rejects.
            if cols > 1 {
                lists[r * cols + c].push(at(r, (c + 1) % cols));
            }
            if rows > 1 {
                lists[r * cols + c].push(at((r + 1) % rows, c));
            }
        }
    }
    lists
}

/// Pairing-model random regular graph with stub repair: shuffle `n·d`
/// stubs, pair left to right, and when a candidate pair is a self-loop
/// or duplicate, swap in a random later stub (bounded retries). Returns
/// `None` when repair gets stuck so the caller re-attempts with a fresh
/// derived seed.
fn random_regular(n: usize, d: usize, rng: &mut SmallRng) -> Option<Vec<Vec<u32>>> {
    let mut stubs: Vec<u32> = (0..n as u32)
        .flat_map(|v| std::iter::repeat_n(v, d))
        .collect();
    stubs.shuffle(rng);
    let mut lists = vec![Vec::with_capacity(d); n];
    let mut i = 0;
    while i < stubs.len() {
        let u = stubs[i];
        let mut paired = false;
        for _ in 0..64 {
            let j = rng.gen_range(i + 1..stubs.len());
            let v = stubs[j];
            if u != v && !lists[u as usize].contains(&v) {
                stubs.swap(i + 1, j);
                lists[u as usize].push(v);
                lists[v as usize].push(u);
                paired = true;
                break;
            }
        }
        if !paired {
            return None;
        }
        i += 2;
    }
    Some(lists)
}

/// `G(n, p)` via geometric skipping over the `n(n-1)/2` pair stream:
/// `O(n + |E|)` rather than a coin per pair.
fn erdos_renyi(n: usize, p: f64, rng: &mut SmallRng) -> Vec<Vec<u32>> {
    let mut lists = vec![Vec::new(); n];
    let (mut u, mut v) = (0usize, 1usize);
    let advance = |u: &mut usize, v: &mut usize, by: u64| {
        let mut by = by;
        loop {
            let remaining = (n - *v) as u64;
            if by < remaining {
                *v += by as usize;
                return;
            }
            by -= remaining;
            *u += 1;
            *v = *u + 1;
            if *u >= n - 1 {
                *v = n; // exhausted
                return;
            }
        }
    };
    loop {
        if u >= n - 1 || v >= n {
            break;
        }
        let draw: f64 = rng.gen();
        let skip = if p >= 1.0 {
            0
        } else {
            ((1.0 - draw).ln() / (1.0 - p).ln()).floor() as u64
        };
        advance(&mut u, &mut v, skip);
        if u >= n - 1 || v >= n {
            break;
        }
        lists[u].push(v as u32);
        advance(&mut u, &mut v, 1);
    }
    lists
}

fn watts_strogatz(n: usize, k: usize, beta: f64, rng: &mut SmallRng) -> Vec<Vec<u32>> {
    // The ring lattice, as directed "forward" half-edges per node.
    let mut lists = vec![Vec::with_capacity(k); n];
    let has_edge = |lists: &[Vec<u32>], a: usize, b: u32| {
        lists[a].contains(&b) || lists[b as usize].contains(&(a as u32))
    };
    for v in 0..n {
        for j in 1..=k / 2 {
            let w = ((v + j) % n) as u32;
            if !has_edge(&lists, v, w) {
                lists[v].push(w);
            }
        }
    }
    // Rewire each lattice edge's far endpoint with probability beta.
    for v in 0..n {
        for slot in 0..lists[v].len() {
            if beta > 0.0 && rng.gen_bool(beta) {
                for _ in 0..64 {
                    let w = rng.gen_range(0..n as u32);
                    if w as usize != v && !has_edge(&lists, v, w) {
                        lists[v][slot] = w;
                        break;
                    }
                }
            }
        }
    }
    lists
}

fn preferential_attachment(n: usize, m: usize, rng: &mut SmallRng) -> Vec<Vec<u32>> {
    let core = (m + 1).min(n);
    let mut lists = vec![Vec::new(); n];
    // Degree-proportional sampling pool: one entry per half-edge.
    let mut pool: Vec<u32> = Vec::with_capacity(2 * m * n);
    for (v, row) in lists.iter_mut().enumerate().take(core) {
        for w in v + 1..core {
            row.push(w as u32);
            pool.push(v as u32);
            pool.push(w as u32);
        }
    }
    #[allow(clippy::needless_range_loop)] // `pool` is read and grown alongside `lists[v]`
    for v in core..n {
        let mut chosen: Vec<u32> = Vec::with_capacity(m);
        let mut guard = 0;
        while chosen.len() < m && guard < 64 * m {
            let w = pool[rng.gen_range(0..pool.len())];
            if w as usize != v && !chosen.contains(&w) {
                chosen.push(w);
            }
            guard += 1;
        }
        for &w in &chosen {
            lists[v].push(w);
            pool.push(v as u32);
            pool.push(w);
        }
    }
    lists
}

#[cfg(test)]
mod tests {
    use super::*;

    fn built(t: &Topology, n: usize, seed: u64) -> Adjacency {
        t.build(n, seed)
            .expect("non-complete topologies materialize")
    }

    #[test]
    fn complete_materializes_nothing() {
        assert!(Topology::Complete.build(64, 1).is_none());
        assert!(Topology::Complete.is_complete());
        assert!(Topology::default().is_complete());
    }

    #[test]
    fn ring_shape() {
        let adj = built(&Topology::Ring, 8, 1);
        assert_eq!(adj.edge_count(), 8);
        assert_eq!(adj.max_degree(), 2);
        assert_eq!(adj.neighbors(0), &[1, 7]);
        assert!(adj.contains_edge(3, 4) && !adj.contains_edge(3, 5));
        assert!(adj.is_connected());
    }

    #[test]
    fn two_node_ring_is_a_single_edge() {
        let adj = built(&Topology::Ring, 2, 1);
        assert_eq!(adj.edge_count(), 1);
        assert_eq!(adj.neighbors(0), &[1]);
    }

    #[test]
    fn torus_shape() {
        // 16 = 4 x 4: degree exactly 4 everywhere.
        let adj = built(&Topology::Torus2D, 16, 1);
        assert_eq!(adj.max_degree(), 4);
        assert_eq!(adj.edge_count(), 32);
        assert!(adj.is_connected());
        // A prime n degenerates to a ring.
        let adj = built(&Topology::Torus2D, 13, 1);
        assert_eq!(adj.max_degree(), 2);
        assert!(adj.is_connected());
    }

    #[test]
    fn random_regular_is_regular_and_connected() {
        for seed in 0..4 {
            let adj = built(&Topology::RandomRegular(8), 128, seed);
            for v in 0..128u32 {
                assert_eq!(adj.degree(v), 8, "node {v} at seed {seed}");
            }
            assert!(adj.is_connected());
        }
    }

    #[test]
    fn erdos_renyi_density_tracks_p() {
        let adj = built(&Topology::ErdosRenyi(0.05), 512, 3);
        let expect = 0.05 * 512.0 * 511.0 / 2.0;
        let got = adj.edge_count() as f64;
        assert!(
            (got - expect).abs() < 0.25 * expect,
            "edges {got} vs expected {expect}"
        );
        assert!(adj.is_connected());
    }

    #[test]
    fn watts_strogatz_rewires_but_stays_connected() {
        let lattice = built(&Topology::WattsStrogatz(6, 0.0), 128, 4);
        assert_eq!(lattice.max_degree(), 6, "beta 0 is the pure lattice");
        let rewired = built(&Topology::WattsStrogatz(6, 0.3), 128, 4);
        assert!(rewired.is_connected());
        assert_ne!(lattice, rewired, "beta 0.3 must actually rewire");
    }

    #[test]
    fn preferential_attachment_grows_hubs() {
        let adj = built(&Topology::PreferentialAttachment(3), 256, 5);
        assert!(adj.is_connected());
        assert!(
            adj.max_degree() > 12,
            "scale-free graphs grow hubs, max degree {}",
            adj.max_degree()
        );
        // Every non-core arrival contributes >= 1 (usually m) edges.
        assert!(adj.edge_count() >= 256 - 4);
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        for t in [
            Topology::RandomRegular(6),
            Topology::ErdosRenyi(0.08),
            Topology::WattsStrogatz(4, 0.25),
            Topology::PreferentialAttachment(2),
        ] {
            assert_eq!(built(&t, 96, 11), built(&t, 96, 11), "{}", t.name());
            assert_ne!(built(&t, 96, 11), built(&t, 96, 12), "{}", t.name());
        }
    }

    #[test]
    fn from_adjacency_symmetrizes_and_normalizes() {
        // Directed, duplicated input comes out clean: the parallel
        // `0-1` edge collapses and every edge is mirrored.
        let adj = Adjacency::from_lists(vec![vec![1, 1], vec![2], vec![]]).unwrap();
        assert_eq!(adj.neighbors(0), &[1]);
        assert_eq!(adj.neighbors(1), &[0, 2]);
        assert_eq!(adj.neighbors(2), &[1]);
        assert_eq!(adj.edge_count(), 2);
    }

    #[test]
    fn from_adjacency_rejects_out_of_range() {
        let err = Adjacency::from_lists(vec![vec![5], vec![]]).unwrap_err();
        assert!(err.contains("outside 0..2"), "{err}");
    }

    #[test]
    fn from_adjacency_rejects_self_loops_naming_the_node() {
        let err = Adjacency::from_lists(vec![vec![1], vec![1]]).unwrap_err();
        assert!(err.contains("node 1") && err.contains("self-loop"), "{err}");
    }

    #[test]
    fn from_adjacency_topology_allows_disconnection() {
        // A supplied graph is used as-is — partitions included.
        let t = Topology::FromAdjacency(vec![vec![1], vec![0], vec![3], vec![2]]);
        let adj = t.build(4, 0).unwrap();
        assert!(!adj.is_connected());
        assert_eq!(adj.edge_count(), 2);
    }

    #[test]
    fn validate_names_the_offending_knob() {
        for (t, knob) in [
            (Topology::RandomRegular(1), "\"degree\""),
            (Topology::ErdosRenyi(0.0), "\"p\""),
            (Topology::ErdosRenyi(1.5), "\"p\""),
            (Topology::WattsStrogatz(3, 0.1), "\"k\""),
            (Topology::WattsStrogatz(4, -0.1), "\"beta\""),
            (Topology::PreferentialAttachment(0), "\"m\""),
            (Topology::FromAdjacency(vec![]), "\"adjacency\""),
            (Topology::FromFile(String::new()), "\"path\""),
        ] {
            let err = t.validate().unwrap_err();
            assert!(err.contains(knob), "{}: {err}", t.name());
        }
    }

    #[test]
    #[should_panic(expected = "n * degree even")]
    fn odd_stub_count_rejected_at_build() {
        let _ = Topology::RandomRegular(3).build(9, 0);
    }

    #[test]
    #[should_panic(expected = "failed to produce a connected graph")]
    fn hopeless_density_exhausts_the_regeneration_budget() {
        // p = 1e-6 on 64 nodes: ~0.002 expected edges; never connects.
        let _ = Topology::ErdosRenyi(1e-6).build(64, 0);
    }

    #[test]
    fn sampling_is_confined_to_alive_neighbors() {
        let adj = built(&Topology::Ring, 6, 1);
        let mut alive = BitSet::new_set(6);
        let mut rng = rng_from_seed(9);
        for _ in 0..64 {
            let got = adj.sample_alive_neighbor(&mut rng, NodeIdx(0), &alive);
            assert!(matches!(got, Some(NodeIdx(1)) | Some(NodeIdx(5))));
        }
        alive.clear(1);
        for _ in 0..16 {
            let got = adj.sample_alive_neighbor(&mut rng, NodeIdx(0), &alive);
            assert_eq!(got, Some(NodeIdx(5)), "dead neighbors leave the draw");
        }
        alive.clear(5);
        assert_eq!(
            adj.sample_alive_neighbor(&mut rng, NodeIdx(0), &alive),
            None,
            "all neighbors down: the node sits the round out"
        );
    }

    #[test]
    fn parse_spec_matches_names_and_knobs() {
        assert_eq!(Topology::parse_spec("ring").unwrap(), Topology::Ring);
        assert_eq!(
            Topology::parse_spec("Random-Regular:12").unwrap(),
            Topology::RandomRegular(12)
        );
        assert_eq!(
            Topology::parse_spec("watts_strogatz:8,0.5").unwrap(),
            Topology::WattsStrogatz(8, 0.5)
        );
        assert_eq!(
            Topology::parse_spec("ERDOSRENYI").unwrap(),
            Topology::ErdosRenyi(0.05),
            "omitted knobs take catalog defaults"
        );
        assert_eq!(
            Topology::parse_spec("torus").unwrap(),
            Topology::Torus2D,
            "short alias"
        );
    }

    #[test]
    fn parse_spec_rejects_unknowns_listing_the_catalog() {
        let err = Topology::parse_spec("smallworldz").unwrap_err();
        assert!(err.contains("unknown topology"), "{err}");
        for (spec, _) in Topology::catalog() {
            assert!(err.contains(spec), "{err} missing {spec}");
        }
        let err = Topology::parse_spec("random-regular:lots").unwrap_err();
        assert!(err.contains("wants a number"), "{err}");
        // Integer knobs are exact: no silent truncation or saturation.
        let err = Topology::parse_spec("random-regular:8.9").unwrap_err();
        assert!(err.contains("wants an integer"), "{err}");
        let err = Topology::parse_spec("watts-strogatz:-3").unwrap_err();
        assert!(err.contains("wants an integer"), "{err}");
        let err = Topology::parse_spec("ring:3").unwrap_err();
        assert!(err.contains("extra knob"), "{err}");
        let err = Topology::parse_spec("erdos-renyi:7").unwrap_err();
        assert!(err.contains("\"p\""), "{err}");
    }

    #[test]
    fn addressing_labels_round_trip() {
        for mode in [DirectAddressing::Overlay, DirectAddressing::Restricted] {
            assert_eq!(DirectAddressing::parse(mode.label()).unwrap(), mode);
        }
        assert_eq!(DirectAddressing::default(), DirectAddressing::Overlay);
        let err = DirectAddressing::parse("tunnel").unwrap_err();
        assert!(err.contains("overlay"), "{err}");
    }

    #[test]
    fn normalize_is_shared_and_counts_edges() {
        let mut lists = vec![vec![2, 1, 2], vec![0], vec![0]];
        let edges = normalize_adjacency(&mut lists).unwrap();
        assert_eq!(edges, 2, "the parallel 0-2 edge dedups");
        assert_eq!(lists[0], vec![1, 2]);
        let mut bad = vec![vec![9]];
        assert!(normalize_adjacency(&mut bad).is_err());
    }

    #[test]
    fn normalize_rejects_self_loops_naming_the_node() {
        let mut lists = vec![vec![1], vec![0], vec![2]];
        let err = normalize_adjacency(&mut lists).unwrap_err();
        assert!(err.contains("node 2") && err.contains("self-loop"), "{err}");
    }

    #[test]
    fn parse_spec_file_keeps_the_path_verbatim() {
        assert_eq!(
            Topology::parse_spec("file:tests/data/Mixed_Case-1.txt").unwrap(),
            Topology::FromFile("tests/data/Mixed_Case-1.txt".to_string()),
            "paths are not case-folded or separator-stripped"
        );
        assert_eq!(
            Topology::parse_spec("FILE:a:b,c").unwrap(),
            Topology::FromFile("a:b,c".to_string()),
            "only the first `:` splits; the payload may contain `:` and `,`"
        );
        for bare in ["file:", "file", "file:   "] {
            let err = Topology::parse_spec(bare).unwrap_err();
            assert!(err.contains("\"path\""), "{bare}: {err}");
        }
    }
}
