//! Dirty-cone incremental re-simulation for optimization loops.
//!
//! An optimize pass that rewrites `k` gates of an `n`-gate netlist does
//! not need a full recompile-and-replay to re-score the candidate: only
//! the **output cone** of the touched gates (their forward closure through
//! the fanout graph) can change value, and every other node's packed
//! stimulus response is already known. [`IncrementalSim`] records one
//! full time-packed evaluation of a netlist over a stimulus stream
//! (64 cycles per `u64` word, the [`crate::BlockSim64`] packing),
//! caches every node's words, and then answers *"what does this mutated
//! netlist do on the same stream?"* by re-evaluating just the dirty cone
//! against the cached fan-in words — no instruction-stream recompile, no
//! replay of untouched nodes.
//!
//! Sequential circuits are supported through **per-cycle register-boundary
//! snapshots**: the recording stores every flip-flop output's settled
//! per-cycle trajectory alongside the combinational nodes, so a mutation
//! whose cone stays clear of the registers replays packed against the
//! cached boundary words exactly like the combinational case, and a
//! mutation that dirties a register (its D input changed, or a register
//! was appended) falls back to a per-cycle replay of just the cone with
//! the register feedback threaded cycle to cycle — still proportional to
//! the edit, never to the circuit.
//!
//! The result of a [`resim`](IncrementalSim::resim) is a [`ConeResim`]:
//! the cone that was re-evaluated, the subset of nodes whose values
//! actually changed, and a full [`Activity`] for the mutated netlist that
//! is **bit-identical** to a from-scratch recording (the in-tree property
//! battery locks this in, together with the cone-superset invariant).
//! Accepted candidates are folded back with
//! [`commit`](IncrementalSim::commit), which updates the cache in
//! `O(cone)` and re-arms the simulator for the next mutation. Candidate
//! searches that score thousands of rejected mutations should use
//! [`resim_into`](IncrementalSim::resim_into) with a reusable
//! [`ResimScratch`] + [`ConeResim`] pair, which makes rejection
//! allocation-free once the buffers have warmed up.
//!
//! [`crate::IncrementalTimedSim`] shares this module's core (the
//! crate-private `Recording`: trajectories, edit checks, cone building,
//! diff, commit) and its [`ResimScratch`]/[`ConeResim`]; each engine adds
//! only its replay loop.
//!
//! Mutations are expressed with [`crate::NetlistEditor`] (in-place
//! rewiring with an undo journal, node ids stable) or directly with
//! [`crate::Netlist::replace_gate`] plus append-only construction;
//! `optimize::rewrite` and the guard/precompute/clock-gating searches in
//! the optimize crate are the canonical consumers, and the PR 5
//! attribution profiler consumes the delta activity through
//! [`crate::attribute_delta`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::{BitAnd, BitOr, BitXor, Not};

use hlpower_obs::metrics as obs;

use crate::error::NetlistError;
use crate::library::GateKind;
use crate::netlist::{Netlist, NodeId, NodeKind};
use crate::sim::{Activity, ZeroDelaySim};
use crate::sim64::{broadcast, Program};

/// One recorded value flip of a timed recording: the cycle it happened
/// in and the in-cycle timestamp (picoseconds from the clock edge).
pub(crate) type Flip = (u32, u64);

/// The recording both dirty-cone engines share: the base netlist, the
/// stream geometry, and every node's settled per-cycle trajectory. It
/// owns everything outside the engines' replay loops.
#[derive(Debug, Clone)]
pub(crate) struct Recording {
    /// The netlist the cached values correspond to.
    pub(crate) base: Netlist,
    /// Number of stimulus vectors recorded.
    pub(crate) n_vectors: usize,
    /// `u64` words per node (`n_vectors.div_ceil(64)`).
    pub(crate) blocks: usize,
    /// Valid-bit mask of the final block.
    tail_mask: u64,
    /// Settled packed values, `node * blocks + b`; bit `c` of block `b` is
    /// the node's settled value on vector `b * 64 + c`. For flip-flops
    /// this is the register-boundary snapshot: the Q trajectory.
    pub(crate) values: Vec<u64>,
}

/// A recorded time-packed simulation of a netlist over a fixed stimulus
/// stream, supporting dirty-cone re-simulation of mutated variants. See
/// the `incremental` module docs for the workflow.
#[derive(Debug, Clone)]
pub struct IncrementalSim {
    rec: Recording,
    /// Exact activity of the base recording.
    activity: Activity,
}

/// The outcome of one dirty-cone re-simulation: which nodes were
/// re-evaluated, which actually changed, and the mutated netlist's full
/// activity — an [`Activity`] from [`IncrementalSim::resim`], a
/// glitch-inclusive [`crate::TimedActivity`] from
/// [`crate::IncrementalTimedSim::resim`] (as [`crate::TimedConeResim`]).
#[derive(Debug, Clone, Default)]
pub struct ConeResim<A = Activity> {
    /// Every node that was re-evaluated (the mutation seeds, all appended
    /// nodes, and their forward closure), in evaluation (topological)
    /// order. Guaranteed to be a superset of
    /// [`changed_values`](Self::changed_values).
    pub cone: Vec<NodeId>,
    /// The cone nodes whose settled values differ from the cached base
    /// recording (appended nodes always count: they had no prior value).
    pub changed_values: Vec<NodeId>,
    /// Activity of the mutated netlist over the recorded stream,
    /// bit-identical to a from-scratch recording of the mutated netlist.
    pub activity: A,
    /// Re-evaluated settled packed values, cone-index-major (`blocks`
    /// words per cone node).
    pub(crate) updates: Vec<u64>,
    /// Words per node, copied from the recording for indexing `updates`.
    pub(crate) blocks: usize,
    /// Timed engine only (empty otherwise): the replayed event waveforms
    /// and power-on settle values of the cone, for its `commit`.
    pub(crate) cone_events: Vec<Vec<Flip>>,
    pub(crate) cone_init: Vec<bool>,
}

impl<A> ConeResim<A> {
    /// Packed `u64` words re-evaluated by this resim (`cone × blocks`) —
    /// the work metric the `opt_search` observability section reports.
    pub fn words_replayed(&self) -> u64 {
        (self.cone.len() * self.blocks) as u64
    }
}

/// Reusable working memory for [`IncrementalSim::resim_into`] and
/// [`crate::IncrementalTimedSim::resim_into`]. One scratch serves any
/// number of candidates (and any number of netlists, under either
/// engine); every internal buffer is cleared and refilled in place, so a
/// candidate search allocates nothing once the buffers have grown to the
/// netlist's size — rejected candidates leave no garbage behind. The
/// timed playback buffers stay empty for zero-delay users.
#[derive(Debug, Clone, Default)]
pub struct ResimScratch {
    /// Membership flags for the declared change set.
    in_changed: Vec<bool>,
    /// Membership flags for the dirty cone.
    pub(crate) in_cone: Vec<bool>,
    /// DFS stack for the forward closure (node indices).
    stack: Vec<u32>,
    /// Node index -> cone index, `usize::MAX` outside the cone.
    pub(crate) update_of: Vec<usize>,
    /// CSR fanout graph of the mutated netlist (all reader edges,
    /// including flip-flop D pins).
    pub(crate) fan_start: Vec<u32>,
    pub(crate) fan: Vec<u32>,
    /// Scatter cursor for the CSR build.
    cursor: Vec<u32>,
    /// Kahn worklist state for the scratch topological sort.
    indeg: Vec<u32>,
    topo_stack: Vec<u32>,
    order: Vec<NodeId>,
    /// Per-cycle cone values and sampled flip-flop D inputs.
    pub(crate) cur: Vec<bool>,
    pub(crate) dff_next: Vec<bool>,
    /// Timed playback: the cone's direct out-of-cone fan-ins, node index
    /// -> boundary index (`usize::MAX` elsewhere), their current values
    /// and their cursors into the cached waveforms.
    pub(crate) boundary: Vec<u32>,
    pub(crate) b_index: Vec<usize>,
    pub(crate) bvals: Vec<bool>,
    pub(crate) cursors: Vec<usize>,
    /// Timed replay: last settled cone values, gate delays, event heap.
    pub(crate) settled: Vec<bool>,
    pub(crate) delays: Vec<u64>,
    pub(crate) heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl ResimScratch {
    /// Loads `dff_next` with the power-on value of every register in
    /// `cone` (`false` for other nodes): a per-cycle replay's first state.
    pub(crate) fn arm_registers(&mut self, mutated: &Netlist, cone: &[NodeId]) {
        self.dff_next.clear();
        let init = |id: &NodeId| matches!(mutated.kind(*id), NodeKind::Dff { init: true, .. });
        self.dff_next.extend(cone.iter().map(init));
    }
}

/// Clears `v` and refills it with `n` copies of `fill`, reusing capacity.
pub(crate) fn refill<T: Clone>(v: &mut Vec<T>, n: usize, fill: T) {
    v.clear();
    v.resize(n, fill);
}

/// Refills `totals` with the recorded per-node `base` totals, extended
/// with zeros to `n` nodes (appended nodes have no recorded activity).
pub(crate) fn carry_totals(totals: &mut Vec<u64>, base: &[u64], n: usize) {
    refill(totals, n, 0);
    totals[..base.len()].copy_from_slice(base);
}

/// Packs one cycle of settled node values into a bit-packed trajectory:
/// bit `cycle % 64` of `values[node * blocks + cycle / 64]`.
pub(crate) fn pack_settled(values: &mut [u64], blocks: usize, cycle: usize, settled: &[bool]) {
    let (b, bit) = (cycle / 64, cycle % 64);
    for (node, &val) in settled.iter().enumerate() {
        values[node * blocks + b] |= (val as u64) << bit;
    }
}

/// Zeroes the bits past the last recorded cycle in the final word of
/// every `blocks`-word row: whatever a replay computed there, trailing
/// bits of a settled trajectory read as zero-padding in both engines.
fn clear_padding(words: &mut [u64], blocks: usize, tail_mask: u64) {
    for w in words.iter_mut().skip(blocks - 1).step_by(blocks) {
        *w &= tail_mask;
    }
}

/// The error for an edit that breaks the dirty-cone preconditions.
pub(crate) fn mismatch(reason: String) -> NetlistError {
    NetlistError::IncrementalMismatch { reason }
}

/// Evaluates one gate function over packed `u64` words (64 cycles at
/// once) or over single `bool` values; every replay loop folds through
/// this one definition, so packed and per-cycle replays agree bit for bit.
#[inline]
pub(crate) fn eval_gate<T>(kind: GateKind, inputs: &[NodeId], get: impl Fn(NodeId) -> T) -> T
where
    T: Copy
        + Default
        + Not<Output = T>
        + BitAnd<Output = T>
        + BitOr<Output = T>
        + BitXor<Output = T>,
{
    let zero = T::default();
    let fold = |unit: T, f: fn(T, T) -> T| inputs.iter().fold(unit, |acc, &i| f(acc, get(i)));
    match kind {
        GateKind::Buf => get(inputs[0]),
        GateKind::Not => !get(inputs[0]),
        GateKind::And => fold(!zero, |a, b| a & b),
        GateKind::Or => fold(zero, |a, b| a | b),
        GateKind::Nand => !fold(!zero, |a, b| a & b),
        GateKind::Nor => !fold(zero, |a, b| a | b),
        GateKind::Xor => fold(zero, |a, b| a ^ b),
        GateKind::Xnor => !fold(zero, |a, b| a ^ b),
        GateKind::Mux => {
            let s = get(inputs[0]);
            (!s & get(inputs[1])) | (s & get(inputs[2]))
        }
    }
}

/// Exact toggle count of one node's packed value words: transitions
/// between consecutive valid cycles, with the scalar "first vector
/// initializes" rule (cycle 0 toggles nothing) and cross-block carry.
fn toggles_of(words: &[u64], n_vectors: usize) -> u64 {
    let mut total = 0u64;
    let mut carry = words[0] & 1;
    for (b, &w) in words.iter().enumerate() {
        let valid = (n_vectors - b * 64).min(64);
        let mask = if valid == 64 { !0 } else { (1u64 << valid) - 1 };
        total += ((w ^ ((w << 1) | carry)) & mask).count_ones() as u64;
        carry = (w >> (valid - 1)) & 1;
    }
    total
}

/// Builds the CSR fanout graph of `netlist` (gate input pins and
/// flip-flop D pins) into the scratch buffers.
fn build_fanout_csr(
    netlist: &Netlist,
    fan_start: &mut Vec<u32>,
    fan: &mut Vec<u32>,
    cursor: &mut Vec<u32>,
) {
    let n = netlist.node_count();
    refill(fan_start, n + 1, 0u32);
    // Count readers per node, prefix-sum, then scatter.
    for id in netlist.node_ids() {
        match netlist.kind(id) {
            NodeKind::Gate { inputs, .. } => {
                for f in inputs {
                    fan_start[f.index() + 1] += 1;
                }
            }
            NodeKind::Dff { d, .. } => fan_start[d.index() + 1] += 1,
            _ => {}
        }
    }
    for i in 0..n {
        fan_start[i + 1] += fan_start[i];
    }
    refill(fan, fan_start[n] as usize, 0u32);
    cursor.clear();
    cursor.extend_from_slice(&fan_start[..n]);
    for id in netlist.node_ids() {
        match netlist.kind(id) {
            NodeKind::Gate { inputs, .. } => {
                for f in inputs {
                    let c = &mut cursor[f.index()];
                    fan[*c as usize] = id.index() as u32;
                    *c += 1;
                }
            }
            NodeKind::Dff { d, .. } => {
                let c = &mut cursor[d.index()];
                fan[*c as usize] = id.index() as u32;
                *c += 1;
            }
            _ => {}
        }
    }
}

/// Scratch-buffer topological sort over the combinational part of
/// `netlist`, mirroring [`Netlist::topo_order`] (non-gates first in index
/// order, then gates; flip-flops legally break cycles).
fn topo_into(
    netlist: &Netlist,
    fan_start: &[u32],
    fan: &[u32],
    indeg: &mut Vec<u32>,
    stack: &mut Vec<u32>,
    order: &mut Vec<NodeId>,
) -> Result<(), NetlistError> {
    let n = netlist.node_count();
    refill(indeg, n, 0u32);
    stack.clear();
    order.clear();
    let mut gate_total = 0usize;
    for id in netlist.node_ids() {
        match netlist.kind(id) {
            NodeKind::Gate { inputs, .. } => {
                gate_total += 1;
                let deg = inputs
                    .iter()
                    .filter(|x| matches!(netlist.kind(**x), NodeKind::Gate { .. }))
                    .count() as u32;
                indeg[id.index()] = deg;
                if deg == 0 {
                    stack.push(id.index() as u32);
                }
            }
            _ => order.push(id),
        }
    }
    let mut emitted = 0usize;
    while let Some(u) = stack.pop() {
        order.push(NodeId(u));
        emitted += 1;
        for k in fan_start[u as usize] as usize..fan_start[u as usize + 1] as usize {
            let f = fan[k] as usize;
            if matches!(netlist.kind(NodeId(f as u32)), NodeKind::Gate { .. }) {
                indeg[f] -= 1;
                if indeg[f] == 0 {
                    stack.push(f as u32);
                }
            }
        }
    }
    if emitted != gate_total {
        let node = netlist
            .node_ids()
            .find(|id| matches!(netlist.kind(*id), NodeKind::Gate { .. }) && indeg[id.index()] > 0)
            .expect("a blocked gate must exist when the order is incomplete");
        return Err(NetlistError::CombinationalCycle { node });
    }
    Ok(())
}

impl Recording {
    /// Validates `stream` against `netlist`, lets `fill` write the settled
    /// trajectories into an all-zero recording (returning whatever else
    /// the engine caches), and counts the recording.
    pub(crate) fn record<T>(
        netlist: &Netlist,
        stream: &[Vec<bool>],
        fill: impl FnOnce(&mut Recording) -> Result<T, NetlistError>,
    ) -> Result<(Recording, T), NetlistError> {
        if stream.is_empty() {
            return Err(NetlistError::EmptyStream);
        }
        let width = netlist.input_count();
        if let Some(v) = stream.iter().find(|v| v.len() != width) {
            return Err(NetlistError::InputWidthMismatch { got: v.len(), expected: width });
        }
        let n_vectors = stream.len();
        let blocks = n_vectors.div_ceil(64);
        let tail_valid = n_vectors - (blocks - 1) * 64;
        let mut rec = Recording {
            base: netlist.clone(),
            n_vectors,
            blocks,
            tail_mask: if tail_valid == 64 { !0 } else { (1u64 << tail_valid) - 1 },
            values: vec![0u64; netlist.node_count() * blocks],
        };
        let cached = fill(&mut rec)?;
        clear_padding(&mut rec.values, blocks, rec.tail_mask);
        obs::SIM_INC_RECORDS.inc();
        Ok((rec, cached))
    }

    pub(crate) fn value_words(&self, node: NodeId) -> &[u64] {
        &self.values[node.index() * self.blocks..(node.index() + 1) * self.blocks]
    }

    /// Checks that `mutated` is an incremental edit of the base, then
    /// builds its dirty cone: `out.cone` in topological order, with the
    /// fanout CSR, cone membership and `update_of` map in `scratch`, and
    /// `out.updates` zeroed for the replay. See
    /// [`IncrementalSim::resim_into`] for the preconditions.
    pub(crate) fn dirty_cone<A>(
        &self,
        mutated: &Netlist,
        changed: &[NodeId],
        scratch: &mut ResimScratch,
        out: &mut ConeResim<A>,
    ) -> Result<(), NetlistError> {
        let n_base = self.base.node_count();
        let n_new = mutated.node_count();
        if n_new < n_base {
            return Err(mismatch(format!(
                "mutated netlist has {n_new} nodes, base has {n_base} (nodes were removed)"
            )));
        }
        if mutated.inputs() != self.base.inputs() {
            return Err(mismatch("primary inputs differ from the base netlist".into()));
        }
        let base_dffs = self.base.dffs().len();
        if mutated.dffs().len() < base_dffs || mutated.dffs()[..base_dffs] != *self.base.dffs() {
            return Err(mismatch("pre-existing flip-flops differ from the base netlist".into()));
        }
        refill(&mut scratch.in_changed, n_new, false);
        for &c in changed {
            if c.index() >= n_new {
                return Err(mismatch(format!("changed node {c} is out of range")));
            }
            if !matches!(mutated.kind(c), NodeKind::Gate { .. }) {
                return Err(mismatch(format!("changed node {c} is not a combinational gate")));
            }
            scratch.in_changed[c.index()] = true;
        }
        for id in self.base.node_ids() {
            if !scratch.in_changed[id.index()] && self.base.kind(id) != mutated.kind(id) {
                return Err(mismatch(format!(
                    "node {id} differs from the base but is not in the change set"
                )));
            }
        }
        // Fanout CSR + topological order of the mutated netlist: rewiring
        // can invalidate the base instruction order, and this is also
        // where a freshly introduced combinational cycle surfaces.
        build_fanout_csr(mutated, &mut scratch.fan_start, &mut scratch.fan, &mut scratch.cursor);
        topo_into(
            mutated,
            &scratch.fan_start,
            &scratch.fan,
            &mut scratch.indeg,
            &mut scratch.topo_stack,
            &mut scratch.order,
        )?;
        // Dirty cone: changed gates and appended nodes, plus their forward
        // closure through the fanout graph — crossing register boundaries:
        // a dirty D input dirties the flip-flop's Q row and its readers.
        refill(&mut scratch.in_cone, n_new, false);
        scratch.stack.clear();
        scratch.stack.extend(changed.iter().map(|c| c.index() as u32));
        scratch.stack.extend(n_base as u32..n_new as u32);
        while let Some(u) = scratch.stack.pop() {
            let u = u as usize;
            if scratch.in_cone[u] {
                continue;
            }
            scratch.in_cone[u] = true;
            for k in scratch.fan_start[u] as usize..scratch.fan_start[u + 1] as usize {
                let f = scratch.fan[k] as usize;
                if !scratch.in_cone[f] {
                    scratch.stack.push(f as u32);
                }
            }
        }
        out.cone.clear();
        out.cone.extend(scratch.order.iter().copied().filter(|id| scratch.in_cone[id.index()]));
        refill(&mut scratch.update_of, n_new, usize::MAX);
        for (ci, &id) in out.cone.iter().enumerate() {
            scratch.update_of[id.index()] = ci;
        }
        out.blocks = self.blocks;
        refill(&mut out.updates, out.cone.len() * self.blocks, 0u64);
        Ok(())
    }

    /// Closes a replayed resim of a `n_new`-node netlist: clears the
    /// padding of the replayed words, fills `out.changed_values` with the
    /// cone nodes whose settled trajectory differs from the recording on
    /// a valid cycle, and counts the resim.
    pub(crate) fn finish<A>(&self, n_new: usize, out: &mut ConeResim<A>) {
        let (n_base, blocks) = (self.base.node_count(), self.blocks);
        clear_padding(&mut out.updates, blocks, self.tail_mask);
        out.changed_values.clear();
        for (ci, &id) in out.cone.iter().enumerate() {
            // Padding is zero on both sides, so whole words compare; an
            // appended node has no prior value to agree with.
            let differs = id.index() >= n_base
                || *self.value_words(id) != out.updates[ci * blocks..(ci + 1) * blocks];
            if differs {
                out.changed_values.push(id);
            }
        }
        obs::SIM_INC_RESIMS.inc();
        obs::SIM_INC_CONE_NODES.add(out.cone.len() as u64);
        obs::SIM_INC_REUSED_NODES.add((n_new - out.cone.len()) as u64);
    }

    /// The trajectory half of a commit: the cone's replayed words replace
    /// the stale ones and `mutated` becomes the base.
    pub(crate) fn commit<A>(&mut self, mutated: &Netlist, resim: &ConeResim<A>) {
        let blocks = self.blocks;
        self.values.resize(mutated.node_count() * blocks, 0);
        for (ci, &id) in resim.cone.iter().enumerate() {
            self.values[id.index() * blocks..(id.index() + 1) * blocks]
                .copy_from_slice(&resim.updates[ci * blocks..(ci + 1) * blocks]);
        }
        self.base = mutated.clone();
    }
}

impl IncrementalSim {
    /// Records a full time-packed evaluation of `netlist` over `stream`,
    /// caching every node's packed values for later dirty-cone
    /// re-simulation. Combinational netlists evaluate block-parallel on
    /// the compiled instruction stream; sequential netlists replay the
    /// scalar simulator once and pack the per-cycle register-boundary
    /// snapshots, so either way the cache is bit-identical to a scalar
    /// [`ZeroDelaySim`] run.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::EmptyStream`] for an empty stream,
    /// [`NetlistError::InputWidthMismatch`] for a bad vector width, or
    /// [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn record(netlist: &Netlist, stream: &[Vec<bool>]) -> Result<Self, NetlistError> {
        let n = netlist.node_count();
        let (rec, ()) = Recording::record(netlist, stream, |rec| {
            let (blocks, values) = (rec.blocks, &mut rec.values);
            if !netlist.dffs().is_empty() {
                // Sequential: one scalar pass, packing every node's settled
                // per-cycle value — the flip-flop rows are the register-
                // boundary snapshots that later resims read across.
                let mut sim = ZeroDelaySim::new(netlist)?;
                for (c, v) in stream.iter().enumerate() {
                    sim.step(v)?;
                    pack_settled(values, blocks, c, sim.values_raw());
                }
                return Ok(());
            }
            let program = Program::compile(netlist)?;
            // Pack the stimulus into the input nodes' words.
            for (c, v) in stream.iter().enumerate() {
                let (b, bit) = (c / 64, c % 64);
                for (i, &inp) in netlist.inputs().iter().enumerate() {
                    values[inp.index() * blocks + b] |= (v[i] as u64) << bit;
                }
            }
            // Evaluate block by block: gates only depend on same-cycle
            // values, so each 64-cycle block settles independently.
            let mut cur = program.init_words::<u64>();
            for b in 0..blocks {
                for &inp in netlist.inputs() {
                    cur[inp.index()] = values[inp.index() * blocks + b];
                }
                for ins in &program.instrs {
                    cur[ins.out as usize] = program.eval(&cur, ins);
                }
                for node in 0..n {
                    values[node * blocks + b] = cur[node];
                }
            }
            Ok(())
        })?;
        let toggles = netlist.node_ids().map(|id| toggles_of(rec.value_words(id), rec.n_vectors));
        let activity = Activity { toggles: toggles.collect(), cycles: (rec.n_vectors - 1) as u64 };
        Ok(IncrementalSim { rec, activity })
    }

    /// The netlist the cached recording corresponds to (updated by
    /// [`commit`](Self::commit)).
    pub fn base(&self) -> &Netlist {
        &self.rec.base
    }

    /// Number of stimulus vectors in the recorded stream.
    pub fn vectors(&self) -> usize {
        self.rec.n_vectors
    }

    /// The cached packed value words of a node (bit `c` of word `b` is
    /// the settled value on vector `b * 64 + c`; trailing bits of the
    /// final word are zero-padding).
    pub fn value_words(&self, node: NodeId) -> &[u64] {
        self.rec.value_words(node)
    }

    /// A node's settled value on one recorded cycle.
    pub fn value_at(&self, node: NodeId, cycle: usize) -> bool {
        (self.value_words(node)[cycle / 64] >> (cycle % 64)) & 1 != 0
    }

    /// Activity of the base netlist over the recorded stream,
    /// bit-identical to a scalar [`crate::ZeroDelaySim`] run.
    pub fn activity(&self) -> Activity {
        self.activity.clone()
    }

    /// Re-simulates a mutated variant of the base netlist over the
    /// recorded stream, allocating a fresh [`ConeResim`]. Candidate
    /// searches should prefer [`resim_into`](Self::resim_into), which
    /// reuses buffers across candidates.
    ///
    /// # Errors
    ///
    /// As [`resim_into`](Self::resim_into).
    pub fn resim(&self, mutated: &Netlist, changed: &[NodeId]) -> Result<ConeResim, NetlistError> {
        let mut scratch = ResimScratch::default();
        let mut out = ConeResim::default();
        self.resim_into(mutated, changed, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Re-simulates a mutated variant of the base netlist over the
    /// recorded stream by evaluating only the dirty cone: the forward
    /// closure of the `changed` gates plus any appended nodes (through
    /// register boundaries — a flip-flop whose D input is dirty dirties
    /// its own Q trajectory and everything reading it). Untouched nodes
    /// reuse their cached words verbatim. Results land in `out`, working
    /// memory in `scratch`; both are reused across calls, so a rejected
    /// candidate costs no allocation once the buffers are warm.
    ///
    /// `mutated` must be an *incremental edit* of the base: same primary
    /// inputs, same pre-existing flip-flops, no removed nodes, and every
    /// pre-existing node that differs from the base declared in `changed`
    /// (out-of-cone nodes are never re-checked — an undeclared edit would
    /// silently desynchronize the cache, so it is rejected up front).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::IncrementalMismatch`] if `mutated` violates
    /// the preconditions above, or
    /// [`NetlistError::CombinationalCycle`] if the rewiring introduced a
    /// cycle.
    pub fn resim_into(
        &self,
        mutated: &Netlist,
        changed: &[NodeId],
        scratch: &mut ResimScratch,
        out: &mut ConeResim,
    ) -> Result<(), NetlistError> {
        self.rec.dirty_cone(mutated, changed, scratch, out)?;
        let (cone, blocks) = (&out.cone, self.rec.blocks);
        let register_dirty =
            cone.iter().any(|&id| matches!(mutated.kind(id), NodeKind::Dff { .. }));
        if !register_dirty {
            // Packed replay: the cone reads only cached words (including
            // register-boundary snapshots) and same-cycle cone values.
            let (updates, update_of) = (&mut out.updates, &scratch.update_of);
            for b in 0..blocks {
                for ci in 0..cone.len() {
                    let id = cone[ci];
                    let w = match mutated.kind(id) {
                        NodeKind::Const(v) => broadcast(*v),
                        NodeKind::Gate { kind, inputs } => eval_gate(*kind, inputs, |f| {
                            let u = update_of[f.index()];
                            if u != usize::MAX {
                                // Cone fan-ins precede ci in topo order.
                                updates[u * blocks + b]
                            } else {
                                self.rec.values[f.index() * blocks + b]
                            }
                        }),
                        // Inputs are never in the cone (they have no
                        // declared change and cannot be appended), and a
                        // register in the cone takes the sequential path.
                        other => {
                            return Err(mismatch(format!(
                                "cone node {id} has non-combinational kind {other:?}"
                            )))
                        }
                    };
                    updates[ci * blocks + b] = w;
                }
            }
        } else {
            // A register is dirty: its Q trajectory shifts cycle by cycle,
            // so the cone replays per cycle with the flip-flop feedback
            // threaded through `dff_next` — the cached rows of everything
            // outside the cone are still read verbatim (the snapshots make
            // any boundary value an O(1) bit extraction).
            self.resim_sequential_cone(mutated, cone, scratch, &mut out.updates)?;
        }
        // Delta activity: untouched nodes keep their recorded toggle
        // counts, cone nodes are re-counted from their new words.
        carry_totals(&mut out.activity.toggles, &self.activity.toggles, mutated.node_count());
        out.activity.cycles = (self.rec.n_vectors - 1) as u64;
        for (ci, &id) in out.cone.iter().enumerate() {
            out.activity.toggles[id.index()] =
                toggles_of(&out.updates[ci * blocks..(ci + 1) * blocks], self.rec.n_vectors);
        }
        self.rec.finish(mutated.node_count(), out);
        Ok(())
    }

    /// Per-cycle replay of a register-dirty cone: flip-flop outputs in
    /// the cone present their previously sampled value at the top of each
    /// cycle, gates settle in topological order, and D inputs sample at
    /// the bottom — exactly the scalar [`ZeroDelaySim`] schedule, but
    /// only over the cone.
    fn resim_sequential_cone(
        &self,
        mutated: &Netlist,
        cone: &[NodeId],
        scratch: &mut ResimScratch,
        updates: &mut [u64],
    ) -> Result<(), NetlistError> {
        let (blocks, values) = (self.rec.blocks, &self.rec.values);
        refill(&mut scratch.cur, cone.len(), false);
        scratch.arm_registers(mutated, cone);
        for c in 0..self.rec.n_vectors {
            let (b, bit) = (c / 64, c % 64);
            // Settle the cone for this cycle. `cone` is in topological
            // order with non-gates (registers, constants) first, matching
            // the scalar simulator's present-then-settle schedule.
            for ci in 0..cone.len() {
                let id = cone[ci];
                let v = match mutated.kind(id) {
                    NodeKind::Dff { .. } => scratch.dff_next[ci],
                    NodeKind::Const(v) => *v,
                    NodeKind::Gate { kind, inputs } => {
                        let (cur, update_of) = (&scratch.cur, &scratch.update_of);
                        eval_gate(*kind, inputs, |f| {
                            let u = update_of[f.index()];
                            if u != usize::MAX {
                                cur[u]
                            } else {
                                (values[f.index() * blocks + b] >> bit) & 1 != 0
                            }
                        })
                    }
                    other => {
                        return Err(mismatch(format!(
                            "cone node {id} has non-combinational kind {other:?}"
                        )))
                    }
                };
                scratch.cur[ci] = v;
                updates[ci * blocks + b] |= (v as u64) << bit;
            }
            // Sample D inputs for the next cycle.
            for (ci, &id) in cone.iter().enumerate() {
                if let NodeKind::Dff { d, .. } = mutated.kind(id) {
                    let u = scratch.update_of[d.index()];
                    scratch.dff_next[ci] = if u != usize::MAX {
                        scratch.cur[u]
                    } else {
                        (values[d.index() * blocks + b] >> bit) & 1 != 0
                    };
                }
            }
        }
        Ok(())
    }

    /// Folds an accepted mutation back into the cache in `O(cone)`:
    /// `mutated` becomes the new base and the re-evaluated words replace
    /// the stale ones, so the next [`resim`](Self::resim) builds on it.
    /// The [`ConeResim`] is borrowed, so a search loop can keep reusing
    /// the same output buffer afterwards.
    ///
    /// `resim` must be the result of [`Self::resim`] /
    /// [`Self::resim_into`] for exactly this `mutated` netlist.
    pub fn commit(&mut self, mutated: &Netlist, resim: &ConeResim) {
        let n_new = mutated.node_count();
        debug_assert_eq!(resim.activity.toggles.len(), n_new, "resim is for a different netlist");
        self.rec.commit(mutated, resim);
        self.activity.clone_from(&resim.activity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;
    use crate::sim::ZeroDelaySim;
    use crate::{gen, streams};

    fn adder(bits: usize) -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", bits);
        let b = nl.input_bus("b", bits);
        let c0 = nl.constant(false);
        let s = gen::ripple_adder(&mut nl, &a, &b, c0);
        nl.output_bus("s", &s);
        nl
    }

    /// A registered adder: inputs land in flip-flops, the sum is computed
    /// over the registered values, and an accumulator bit feeds back.
    fn registered_adder(bits: usize) -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.input_bus("a", bits);
        let b = nl.input_bus("b", bits);
        let aq = nl.dff_bus(&a);
        let bq = nl.dff_bus(&b);
        let c0 = nl.constant(false);
        let s = gen::ripple_adder(&mut nl, &aq, &bq, c0);
        let sq = nl.dff_bus(&s);
        nl.output_bus("s", &sq);
        nl
    }

    fn stream_for(nl: &Netlist, seed: u64, cycles: usize) -> Vec<Vec<bool>> {
        streams::random(seed, nl.input_count()).take(cycles).collect()
    }

    #[test]
    fn recording_matches_the_scalar_oracle() {
        let nl = adder(6);
        let stream = stream_for(&nl, 11, 130);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        let mut scalar = ZeroDelaySim::new(&nl).unwrap();
        let act = scalar.run(stream.iter().cloned()).unwrap();
        assert_eq!(inc.activity(), act);
    }

    #[test]
    fn sequential_recording_matches_the_scalar_oracle() {
        let nl = registered_adder(5);
        let stream = stream_for(&nl, 17, 170);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        let mut scalar = ZeroDelaySim::new(&nl).unwrap();
        let act = scalar.run(stream.iter().cloned()).unwrap();
        assert_eq!(inc.activity(), act);
        // Register-boundary snapshots: every flip-flop's Q trajectory is
        // cached like any other node.
        for &q in nl.dffs() {
            assert_eq!(inc.value_words(q).len(), stream.len().div_ceil(64));
        }
    }

    #[test]
    fn resim_matches_full_rerecord_after_a_rewrite() {
        let nl = adder(5);
        let stream = stream_for(&nl, 3, 200);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        // Rewire the first 2-input XOR into an XNOR (a real functional
        // change) and check the dirty-cone result against a full rerecord.
        let mut mutated = nl.clone();
        let target = mutated
            .node_ids()
            .find(|&id| {
                matches!(mutated.kind(id),
                    NodeKind::Gate { kind: GateKind::Xor, inputs } if inputs.len() == 2)
            })
            .unwrap();
        let NodeKind::Gate { inputs, .. } = mutated.kind(target).clone() else { unreachable!() };
        mutated.replace_gate(target, GateKind::Xnor, inputs).unwrap();
        let resim = inc.resim(&mutated, &[target]).unwrap();
        let full = IncrementalSim::record(&mutated, &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
        // Cone covers everything that changed.
        for &id in &resim.changed_values {
            assert!(resim.cone.contains(&id));
        }
        assert!(resim.changed_values.contains(&target));
        // Untouched siblings were not re-evaluated.
        assert!(resim.cone.len() < mutated.node_count());
    }

    #[test]
    fn combinational_cone_in_a_sequential_netlist_replays_packed() {
        // Append logic reading a register boundary: the cone stays clear
        // of the registers, so the packed path must serve it against the
        // cached Q snapshots.
        let nl = registered_adder(4);
        let stream = stream_for(&nl, 23, 150);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        let mut mutated = nl.clone();
        let q0 = nl.dffs()[0];
        let q1 = nl.dffs()[1];
        let watch = mutated.xor([q0, q1]);
        let _watch2 = mutated.not(watch);
        let resim = inc.resim(&mutated, &[]).unwrap();
        assert_eq!(resim.cone.len(), 2);
        let full = IncrementalSim::record(&mutated, &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
    }

    #[test]
    fn register_dirty_cone_matches_full_rerecord() {
        // Rewire a gate that feeds a flip-flop: the register's Q
        // trajectory shifts, which must propagate cycle by cycle.
        let nl = registered_adder(4);
        let stream = stream_for(&nl, 31, 190);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        let mut mutated = nl.clone();
        let target = mutated
            .node_ids()
            .find(|&id| {
                matches!(mutated.kind(id),
                    NodeKind::Gate { kind: GateKind::Xor, inputs } if inputs.len() == 2)
            })
            .unwrap();
        let NodeKind::Gate { inputs, .. } = mutated.kind(target).clone() else { unreachable!() };
        mutated.replace_gate(target, GateKind::Xnor, inputs).unwrap();
        let resim = inc.resim(&mutated, &[target]).unwrap();
        // The cone crossed a register boundary.
        assert!(resim.cone.iter().any(|&id| matches!(mutated.kind(id), NodeKind::Dff { .. })));
        let full = IncrementalSim::record(&mutated, &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
        for (ci, &id) in resim.cone.iter().enumerate() {
            assert_eq!(
                &resim.updates[ci * resim.blocks..(ci + 1) * resim.blocks],
                full.value_words(id),
                "cone value words diverged at {id}"
            );
        }
    }

    #[test]
    fn appended_register_joins_the_cone() {
        // Retiming-style edit: insert a flip-flop on an internal net and
        // repoint a reader at it.
        let nl = adder(4);
        let stream = stream_for(&nl, 41, 140);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        let mut mutated = nl.clone();
        let target = mutated
            .node_ids()
            .find(|&id| {
                matches!(mutated.kind(id),
                    NodeKind::Gate { kind: GateKind::Or, inputs } if inputs.len() == 2)
            })
            .unwrap();
        let NodeKind::Gate { kind, inputs } = mutated.kind(target).clone() else { unreachable!() };
        let q = mutated.dff(inputs[0], false);
        let mut ins = inputs;
        ins[0] = q;
        mutated.replace_gate(target, kind, ins).unwrap();
        let resim = inc.resim(&mutated, &[target]).unwrap();
        assert!(resim.cone.contains(&q));
        let full = IncrementalSim::record(&mutated, &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
    }

    #[test]
    fn commit_chains_mutations() {
        let nl = adder(4);
        let lib = Library::default();
        let stream = stream_for(&nl, 9, 150);
        let mut inc = IncrementalSim::record(&nl, &stream).unwrap();
        let mut current = nl.clone();
        // Two successive mutations, committing each; the cache must track.
        for flip in 0..2usize {
            let target = current
                .node_ids()
                .filter(|&id| {
                    matches!(current.kind(id),
                        NodeKind::Gate { kind: GateKind::And, inputs } if inputs.len() == 2)
                })
                .nth(flip)
                .unwrap();
            let NodeKind::Gate { inputs, .. } = current.kind(target).clone() else {
                unreachable!()
            };
            let mut mutated = current.clone();
            mutated.replace_gate(target, GateKind::Nand, inputs).unwrap();
            let resim = inc.resim(&mutated, &[target]).unwrap();
            inc.commit(&mutated, &resim);
            current = mutated;
        }
        let full = IncrementalSim::record(&current, &stream).unwrap();
        assert_eq!(inc.activity(), full.activity());
        assert_eq!(
            inc.activity().power(&current, &lib).total_power_uw().to_bits(),
            full.activity().power(&current, &lib).total_power_uw().to_bits()
        );
    }

    #[test]
    fn resim_into_reuses_buffers_across_candidates() {
        let nl = adder(5);
        let stream = stream_for(&nl, 13, 120);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        let mut scratch = ResimScratch::default();
        let mut out = ConeResim::default();
        let targets: Vec<NodeId> = nl
            .node_ids()
            .filter(|&id| {
                matches!(nl.kind(id),
                    NodeKind::Gate { kind: GateKind::And, inputs } if inputs.len() == 2)
            })
            .take(3)
            .collect();
        for &target in &targets {
            let mut mutated = nl.clone();
            let NodeKind::Gate { inputs, .. } = nl.kind(target).clone() else { unreachable!() };
            mutated.replace_gate(target, GateKind::Nand, inputs).unwrap();
            inc.resim_into(&mutated, &[target], &mut scratch, &mut out).unwrap();
            let full = IncrementalSim::record(&mutated, &stream).unwrap();
            assert_eq!(out.activity, full.activity(), "buffer reuse corrupted {target}");
            assert!(out.words_replayed() > 0);
        }
    }

    #[test]
    fn appended_logic_joins_the_cone() {
        let nl = adder(4);
        let stream = stream_for(&nl, 21, 90);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        // Append an inverter chain and repoint an existing gate at it.
        let mut mutated = nl.clone();
        let a0 = mutated.inputs()[0];
        let inv = mutated.not(a0);
        let target = mutated
            .node_ids()
            .find(|&id| {
                matches!(mutated.kind(id),
                    NodeKind::Gate { kind: GateKind::Or, inputs } if inputs.len() == 2)
            })
            .unwrap();
        let NodeKind::Gate { inputs, .. } = mutated.kind(target).clone() else { unreachable!() };
        mutated.replace_gate(target, GateKind::Or, vec![inputs[0], inv]).unwrap();
        let resim = inc.resim(&mutated, &[target]).unwrap();
        assert!(resim.cone.contains(&inv));
        let full = IncrementalSim::record(&mutated, &stream).unwrap();
        assert_eq!(resim.activity, full.activity());
    }

    #[test]
    fn undeclared_edits_and_bad_bases_are_rejected() {
        let nl = adder(4);
        let stream = stream_for(&nl, 5, 70);
        let inc = IncrementalSim::record(&nl, &stream).unwrap();
        // Undeclared edit.
        let mut sneaky = nl.clone();
        let target = sneaky
            .node_ids()
            .find(|&id| {
                matches!(sneaky.kind(id),
                    NodeKind::Gate { kind: GateKind::And, inputs } if inputs.len() == 2)
            })
            .unwrap();
        let NodeKind::Gate { inputs, .. } = sneaky.kind(target).clone() else { unreachable!() };
        sneaky.replace_gate(target, GateKind::Nand, inputs).unwrap();
        assert!(matches!(inc.resim(&sneaky, &[]), Err(NetlistError::IncrementalMismatch { .. })));
        // Different inputs.
        let mut extra_input = nl.clone();
        extra_input.input("z");
        assert!(matches!(
            inc.resim(&extra_input, &[]),
            Err(NetlistError::IncrementalMismatch { .. })
        ));
        // A rewiring that introduces a cycle surfaces as such.
        let mut cyclic = nl.clone();
        let NodeKind::Gate { inputs, kind } = cyclic.kind(target).clone() else { unreachable!() };
        let downstream = NodeId(cyclic.node_count() as u32 - 1);
        cyclic.replace_gate(target, kind, vec![inputs[0], downstream]).unwrap();
        assert!(matches!(
            inc.resim(&cyclic, &[target]),
            Err(NetlistError::CombinationalCycle { .. })
        ));
        // A sequential base whose pre-existing register set is edited
        // under the table is rejected.
        let seq = registered_adder(3);
        let seq_stream = stream_for(&seq, 7, 60);
        let seq_inc = IncrementalSim::record(&seq, &seq_stream).unwrap();
        let mut retuned = seq.clone();
        let q = retuned.dffs()[0];
        let NodeKind::Dff { d, .. } = *retuned.kind(q) else { unreachable!() };
        retuned.connect_dff_d(q, d); // no-op rewire keeps structure equal
        assert!(seq_inc.resim(&retuned, &[]).is_ok());
        let other_d = retuned.inputs()[1];
        retuned.connect_dff_d(q, other_d);
        assert!(matches!(
            seq_inc.resim(&retuned, &[]),
            Err(NetlistError::IncrementalMismatch { .. })
        ));
    }
}
