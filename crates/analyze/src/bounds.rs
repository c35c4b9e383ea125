//! Interprocedural memory-bounds checking via interval analysis.
//!
//! Every load and store is classified into exactly one of four classes:
//!
//! * **in-bounds** — interval analysis proves the effective address lies
//!   inside interpreter memory on every execution reaching it;
//! * **out-of-bounds** ([`codes::OOB_ACCESS`], error) — the analysis
//!   proves the address is outside memory on every execution: executing
//!   the instruction always faults;
//! * **unproven** ([`codes::UNPROVEN_ACCESS`], warning) — the derived
//!   interval straddles the bound;
//! * **stack-assumed** ([`codes::STACK_ASSUMED`], note) — the address is
//!   stack-pointer-relative in a callee, where recursion depth (and hence
//!   the concrete SP) is not statically bounded. These are classified
//!   under the documented assumption that the stack region
//!   `[data_len, 2^20)` is never exhausted; they are *not* counted as
//!   proved and never become soundness-oracle claims.
//!
//! The abstract domain tracks, per register: a `u32` interval
//! ([`Interval`]), an *entry-SP-relative* offset (`SpRel`) for stack
//! pointers, or an *entry value* (`Entry(r, iv)`) meaning "the value
//! register `r` held at function entry". `Entry` values flow through
//! stack save/restore slots (an exact-offset frame model), which is how
//! callee-saved registers are proven `Preserved` across calls.
//!
//! Three interprocedural fixpoints run interleaved until stable: callee
//! *summaries* (per-register effects, frame safety), caller→callee entry
//! *contexts* (argument intervals), and the global *written set* (memory
//! that may be stored to; loads from provably-unwritten initial data get
//! the data's min/max as their value interval). If the interleaved loop
//! fails to converge within `MAX_ROUNDS` it falls back to fully
//! conservative inputs, which are trivially sound.

use crate::dataflow::{self, Analysis, Direction};
use crate::diag::{codes, Diagnostic};
use crate::interval::Interval;
use multiscalar_cfg::trip::{loop_bounds, TripBound};
use multiscalar_cfg::{BlockId, Cfg, Edge, EdgeKind, Terminator};
use multiscalar_isa::{memory_words, Addr, AluOp, Cond, FuncId, Instruction, Program, Reg};
use std::collections::BTreeMap;

/// The stack-pointer register, by the code generator's convention. The
/// analysis does not *trust* the convention — a program that uses r31
/// differently just sees `SpRel` values degrade to `Top` — it only
/// decides which register starts as the symbolic entry SP.
const SP: Reg = Reg(31);

/// Rounds of the interleaved summary/context/written fixpoint before the
/// conservative fallback kicks in.
const MAX_ROUNDS: usize = 24;

/// `SpRel` offsets beyond this magnitude degrade to `Top`: the
/// bounded-stack assumption only covers frames that stay well inside the
/// `[data_len, 2^20)` stack region.
const SP_OFFSET_LIMIT: i64 = 1 << 19;

/// Changing joins at one block before interval widening kicks in.
const WIDEN_AFTER: u32 = 2;

/// One load/store classification, keyed by instruction address. The fuzz
/// soundness oracle replays these against a concrete execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemClaim {
    /// The load/store instruction.
    pub pc: Addr,
    /// `true` for stores.
    pub store: bool,
    /// The derived class.
    pub class: AccessClass,
}

/// The four-way classification (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessClass {
    /// Effective address provably in `[0, mem_len)`; the claimed interval
    /// must contain every concrete address and the access never faults.
    InBounds {
        /// Smallest possible effective address.
        lo: i64,
        /// Largest possible effective address.
        hi: i64,
    },
    /// Effective address provably outside memory: executing this
    /// instruction always faults.
    OutOfBounds {
        /// Smallest possible effective address.
        lo: i64,
        /// Largest possible effective address.
        hi: i64,
    },
    /// The derived interval straddles the memory bound.
    Unproven {
        /// Smallest possible effective address.
        lo: i64,
        /// Largest possible effective address.
        hi: i64,
    },
    /// Stack-pointer-relative in a callee; safe under the bounded-stack
    /// assumption, not proved.
    StackAssumed,
}

/// The bounds pass result: diagnostics for the lint pipeline plus the raw
/// per-access claims for the soundness oracle.
#[derive(Debug, Clone)]
pub struct BoundsReport {
    /// E050/W050/N050 findings.
    pub diags: Vec<Diagnostic>,
    /// Every reachable load/store's classification.
    pub claims: Vec<MemClaim>,
}

// ---------------------------------------------------------------------
// Abstract values
// ---------------------------------------------------------------------

/// Abstract register value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    /// No information.
    Top,
    /// Numeric `u32` interval.
    Num(Interval),
    /// Entry-SP plus an offset in `[lo, hi]` (offsets go negative as
    /// frames are pushed).
    SpRel(i64, i64),
    /// The value register `r` held at function entry, numerically bounded
    /// by the interval (from the caller contexts).
    Entry(Reg, Interval),
}

impl Val {
    /// Numeric over-approximation (loses SpRel/Entry identity).
    fn numeric(self) -> Interval {
        match self {
            Val::Num(iv) | Val::Entry(_, iv) => iv,
            Val::Top | Val::SpRel(..) => Interval::full(),
        }
    }

    fn from_interval(iv: Interval) -> Val {
        if iv.is_full() {
            Val::Top
        } else {
            Val::Num(iv)
        }
    }
}

/// Per-program-point abstract state: register file plus the exact-offset
/// stack frame model. `frame[d] = v` means the stack word at
/// `entry_SP + d` currently holds `v`.
#[derive(Debug, Clone, PartialEq)]
struct Env {
    regs: [Val; 32],
    frame: BTreeMap<i64, Val>,
}

/// `None` = unreachable (lattice bottom).
type Fact = Option<Env>;

fn join_interval(a: Interval, b: Interval, widen: bool) -> Interval {
    let j = a.join(b);
    if widen {
        a.widen(j)
    } else {
        j
    }
}

fn join_val(a: Val, b: Val, widen: bool) -> Val {
    match (a, b) {
        _ if a == b => a,
        (Val::Top, _) | (_, Val::Top) => Val::Top,
        (Val::Num(x), Val::Num(y)) => Val::Num(join_interval(x, y, widen)),
        (Val::Entry(r, x), Val::Entry(s, y)) if r == s => Val::Entry(r, join_interval(x, y, widen)),
        (Val::SpRel(l1, h1), Val::SpRel(l2, h2)) => {
            if widen {
                // SpRel has no widening thresholds; a moving SP at a join
                // point (unbalanced loop) degrades to Top.
                Val::Top
            } else {
                Val::SpRel(l1.min(l2), h1.max(h2))
            }
        }
        (Val::SpRel(..), _) | (_, Val::SpRel(..)) => Val::Top,
        // Entry/Num mixes and different entry registers: numeric hull.
        (x, y) => Val::from_interval(join_interval(x.numeric(), y.numeric(), widen)),
    }
}

fn join_env(into: &mut Env, from: &Env, widen: bool) -> bool {
    let mut changed = false;
    for i in 0..32 {
        let j = join_val(into.regs[i], from.regs[i], widen);
        if j != into.regs[i] {
            into.regs[i] = j;
            changed = true;
        }
    }
    // Frame join: keep only slots known on both sides, joining values.
    let keys: Vec<i64> = into.frame.keys().copied().collect();
    for d in keys {
        match from.frame.get(&d) {
            None => {
                into.frame.remove(&d);
                changed = true;
            }
            Some(&v) => {
                let cur = into.frame[&d];
                let j = join_val(cur, v, widen);
                if j != cur {
                    into.frame.insert(d, j);
                    changed = true;
                }
            }
        }
    }
    changed
}

// ---------------------------------------------------------------------
// Function summaries and shared context
// ---------------------------------------------------------------------

/// What a call does to one register, from the caller's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Effect {
    /// The caller's value survives (never written, or saved/restored).
    Preserved,
    /// Overwritten with a value in the interval.
    Value(Interval),
    /// Unknown.
    Top,
}

/// Callable summary of one function, computed to a fixpoint.
#[derive(Debug, Clone, PartialEq)]
struct FnSummary {
    effects: [Effect; 32],
    /// All transitive stores are exact SpRel slots strictly below the
    /// function's entry SP: a caller's frame slots survive the call.
    frame_safe: bool,
}

impl FnSummary {
    /// Optimistic seed for the descending summary fixpoint.
    fn optimistic() -> FnSummary {
        FnSummary {
            effects: [Effect::Preserved; 32],
            frame_safe: true,
        }
    }

    fn pessimistic() -> FnSummary {
        FnSummary {
            effects: [Effect::Top; 32],
            frame_safe: false,
        }
    }
}

/// Global may-written memory: disjoint address intervals plus coarse
/// flags. Loads from addresses provably outside this set read the initial
/// data segment (or the zero fill).
#[derive(Debug, Clone, PartialEq, Default)]
struct Written {
    /// Sorted, disjoint `(lo, hi, values)` ranges: the words `[lo, hi]`
    /// may be written, and every value stored there lies in `values`.
    intervals: Vec<(i64, i64, Interval)>,
    /// The whole stack region `[data_len, 2^20)` may be written.
    stack: bool,
    /// Everything may be written.
    all: bool,
}

/// Above this many disjoint ranges the set coarsens by merging the
/// closest pair — precision traded for termination.
const WRITTEN_CAP: usize = 48;

impl Written {
    /// Adds `[lo, hi]` holding values in `val`; returns `true` if the set
    /// grew (in addresses or in values).
    fn add(&mut self, lo: i64, hi: i64, val: Interval) -> bool {
        if self.all || lo > hi {
            return false;
        }
        if self
            .intervals
            .iter()
            .any(|&(a, b, v)| a <= lo && hi <= b && v.join(val) == v)
        {
            return false;
        }
        // Merge with any overlapping/adjacent ranges, joining values. The
        // value join widens: stored values can feed later stores through
        // loads (a strictly ascending chain the address lattice does not
        // have), so they must snap to thresholds for the interprocedural
        // rounds to converge.
        let (mut lo, mut hi, mut val) = (lo, hi, val);
        self.intervals.retain(|&(a, b, v)| {
            if a <= hi + 1 && b + 1 >= lo {
                lo = lo.min(a);
                hi = hi.max(b);
                val = join_interval(v, val, true);
                false
            } else {
                true
            }
        });
        self.intervals.push((lo, hi, val));
        self.intervals.sort_unstable_by_key(|&(a, b, _)| (a, b));
        if self.intervals.len() > WRITTEN_CAP {
            // Merge the closest adjacent pair.
            let mut best = 0;
            let mut gap = i64::MAX;
            for i in 0..self.intervals.len() - 1 {
                let g = self.intervals[i + 1].0 - self.intervals[i].1;
                if g < gap {
                    gap = g;
                    best = i;
                }
            }
            let (_, b, v) = self.intervals.remove(best + 1);
            self.intervals[best].1 = self.intervals[best].1.max(b);
            self.intervals[best].2 = join_interval(self.intervals[best].2, v, true);
        }
        true
    }

    fn set_stack(&mut self) -> bool {
        let was = self.stack;
        self.stack = true;
        !was
    }

    fn set_all(&mut self) -> bool {
        let was = self.all;
        self.all = true;
        !was
    }

    /// The join of every value that may have been stored into `[lo, hi]`,
    /// when that set is bounded: `Some(None)` if no write overlaps,
    /// `Some(Some(iv))` if all overlapping writes stored values in `iv`,
    /// and `None` when a write of unknown value may land there
    /// (stack-region aliasing or the `all` flag).
    fn stored_values(&self, lo: i64, hi: i64, data_len: i64) -> Option<Option<Interval>> {
        if self.all {
            return None;
        }
        if self.stack && lo < (1 << 20) && hi >= data_len {
            return None;
        }
        let mut acc: Option<Interval> = None;
        for &(a, b, v) in &self.intervals {
            if b >= lo && a <= hi {
                acc = Some(match acc {
                    None => v,
                    Some(x) => x.join(v),
                });
            }
        }
        Some(acc)
    }
}

/// Block-decomposed min/max over the initial data segment, for deriving
/// the value interval of a load from read-only data.
struct DataMinMax {
    data: Vec<u32>,
    mins: Vec<u32>,
    maxs: Vec<u32>,
}

const DATA_BLOCK: usize = 256;

impl DataMinMax {
    fn build(data: &[u32]) -> DataMinMax {
        let nb = data.len().div_ceil(DATA_BLOCK);
        let mut mins = vec![u32::MAX; nb];
        let mut maxs = vec![0u32; nb];
        for (i, &v) in data.iter().enumerate() {
            let b = i / DATA_BLOCK;
            mins[b] = mins[b].min(v);
            maxs[b] = maxs[b].max(v);
        }
        DataMinMax {
            data: data.to_vec(),
            mins,
            maxs,
        }
    }

    /// Min/max over `data[lo..=hi]` (callers clamp to the data range).
    fn query(&self, lo: usize, hi: usize) -> (u32, u32) {
        let (mut mn, mut mx) = (u32::MAX, 0u32);
        let mut i = lo;
        while i <= hi {
            if i.is_multiple_of(DATA_BLOCK) && i + DATA_BLOCK - 1 <= hi {
                let b = i / DATA_BLOCK;
                mn = mn.min(self.mins[b]);
                mx = mx.max(self.maxs[b]);
                i += DATA_BLOCK;
            } else {
                mn = mn.min(self.data[i]);
                mx = mx.max(self.data[i]);
                i += 1;
            }
        }
        (mn, mx)
    }
}

/// Everything a transfer function needs, shared across one fixpoint round.
struct ACtx<'a> {
    program: &'a Program,
    mem_len: i64,
    data_len: i64,
    summaries: &'a [FnSummary],
    written: &'a Written,
    minmax: &'a DataMinMax,
}

// ---------------------------------------------------------------------
// Instruction transfer
// ---------------------------------------------------------------------

/// Where an access lands, before bounds classification.
enum Address {
    Num { lo: i64, hi: i64 },
    Sp { lo: i64, hi: i64 },
    Unknown,
}

fn address_of(env: &Env, base: Reg, offset: i32) -> Address {
    let off = offset as i64;
    match env.regs[base.index()] {
        Val::Num(iv) | Val::Entry(_, iv) => Address::Num {
            lo: iv.lo + off,
            hi: iv.hi + off,
        },
        Val::SpRel(l, h) => Address::Sp {
            lo: l + off,
            hi: h + off,
        },
        Val::Top => Address::Unknown,
    }
}

fn classify(addr: &Address, mem_len: i64) -> AccessClass {
    match *addr {
        Address::Sp { .. } => AccessClass::StackAssumed,
        Address::Unknown => AccessClass::Unproven {
            lo: 0,
            hi: u32::MAX as i64,
        },
        Address::Num { lo, hi } => {
            if lo >= 0 && hi < mem_len {
                AccessClass::InBounds { lo, hi }
            } else if hi < 0 || lo >= mem_len {
                AccessClass::OutOfBounds { lo, hi }
            } else {
                AccessClass::Unproven { lo, hi }
            }
        }
    }
}

/// Abstract ALU, including the SpRel/Entry special cases.
fn eval_op(op: AluOp, a: Val, b: Val) -> Val {
    // Identity-preserving moves: `add r, s, 0` / `sub r, s, 0` are the
    // `mov` idiom and must not degrade Entry/SpRel values.
    match op {
        AluOp::Add => {
            if b.numeric().as_singleton() == Some(0) && matches!(b, Val::Num(_)) {
                return a;
            }
            if a.numeric().as_singleton() == Some(0) && matches!(a, Val::Num(_)) {
                return b;
            }
        }
        AluOp::Sub | AluOp::Or | AluOp::Xor
            if b.numeric().as_singleton() == Some(0) && matches!(b, Val::Num(_)) =>
        {
            return a;
        }
        _ => {}
    }
    // Stack-pointer arithmetic keeps the symbolic base.
    match (op, a, b) {
        (AluOp::Add, Val::SpRel(l, h), other) | (AluOp::Add, other, Val::SpRel(l, h)) => {
            if let Val::Num(iv) | Val::Entry(_, iv) = other {
                return sp_rel(l + iv.lo, h + iv.hi);
            }
            return Val::Top;
        }
        (AluOp::Sub, Val::SpRel(l, h), Val::Num(iv))
        | (AluOp::Sub, Val::SpRel(l, h), Val::Entry(_, iv)) => {
            return sp_rel(l - iv.hi, h - iv.lo);
        }
        (AluOp::Sub, Val::SpRel(l1, h1), Val::SpRel(l2, h2)) => {
            let (lo, hi) = (l1 - h2, h1 - l2);
            if lo >= 0 {
                return Val::from_interval(Interval::new(lo, hi));
            }
            return Val::Top;
        }
        _ => {}
    }
    if matches!(a, Val::SpRel(..)) || matches!(b, Val::SpRel(..)) {
        // Any other arithmetic on a stack pointer: unknowable numerically.
        return match op {
            AluOp::Slt | AluOp::Sltu => Val::Num(Interval::new(0, 1)),
            _ => Val::Top,
        };
    }
    Val::from_interval(Interval::apply(op, a.numeric(), b.numeric()))
}

fn sp_rel(lo: i64, hi: i64) -> Val {
    if lo.abs() > SP_OFFSET_LIMIT || hi.abs() > SP_OFFSET_LIMIT {
        Val::Top
    } else {
        Val::SpRel(lo, hi)
    }
}

/// An immediate operand: negative immediates flip add/sub so the interval
/// math never sees a sign-extended wrap.
fn imm_op(op: AluOp, imm: i32) -> (AluOp, Val) {
    match op {
        AluOp::Add if imm < 0 => (AluOp::Sub, Val::Num(Interval::exact(imm.unsigned_abs()))),
        AluOp::Sub if imm < 0 => (AluOp::Add, Val::Num(Interval::exact(imm.unsigned_abs()))),
        _ => (op, Val::Num(Interval::exact(imm as u32))),
    }
}

/// What one instruction did, as far as the sweep collectors care.
enum Step {
    None,
    Mem { access: MemClaim },
    Call { callees: Vec<FuncId>, known: bool },
}

/// Abstractly executes one instruction, mutating `env`.
fn exec_inst(env: &mut Env, pc: Addr, inst: &Instruction, a: &ACtx) -> Step {
    match *inst {
        Instruction::LoadImm { rd, imm } => {
            env.regs[rd.index()] = Val::Num(Interval::exact(imm as u32));
            Step::None
        }
        Instruction::Op { op, rd, rs1, rs2 } => {
            env.regs[rd.index()] = eval_op(op, env.regs[rs1.index()], env.regs[rs2.index()]);
            Step::None
        }
        Instruction::OpImm { op, rd, rs1, imm } => {
            let (op, rhs) = imm_op(op, imm);
            env.regs[rd.index()] = eval_op(op, env.regs[rs1.index()], rhs);
            Step::None
        }
        Instruction::Load { rd, base, offset } => {
            let addr = address_of(env, base, offset);
            let class = classify(&addr, a.mem_len);
            env.regs[rd.index()] = load_value(env, &addr, &class, a);
            Step::Mem {
                access: MemClaim {
                    pc,
                    store: false,
                    class,
                },
            }
        }
        Instruction::Store { src, base, offset } => {
            let addr = address_of(env, base, offset);
            let class = classify(&addr, a.mem_len);
            store_effect(env, &addr, &class, src, a);
            Step::Mem {
                access: MemClaim {
                    pc,
                    store: true,
                    class,
                },
            }
        }
        Instruction::Call { target } => {
            let callees: Vec<FuncId> = a.program.function_at(target).into_iter().collect();
            let known = !callees.is_empty();
            apply_call(env, &callees, known, a);
            Step::Call { callees, known }
        }
        Instruction::CallIndirect { .. } => {
            let callees: Vec<FuncId> = a
                .program
                .indirect_targets(pc)
                .map(|ts| {
                    ts.iter()
                        .filter_map(|&t| a.program.function_at(t))
                        .collect()
                })
                .unwrap_or_default();
            let known = !callees.is_empty();
            apply_call(env, &callees, known, a);
            Step::Call { callees, known }
        }
        _ => Step::None,
    }
}

/// The value a load produces: frame slots for exact stack reads, the
/// initial-data min/max for provably-unwritten in-bounds reads, Top
/// otherwise.
fn load_value(env: &Env, addr: &Address, class: &AccessClass, a: &ACtx) -> Val {
    match *addr {
        Address::Sp { lo, hi } if lo == hi => env.frame.get(&lo).copied().unwrap_or(Val::Top),
        Address::Sp { .. } | Address::Unknown => Val::Top,
        Address::Num { lo, hi } => {
            let AccessClass::InBounds { .. } = class else {
                return Val::Top;
            };
            let Some(stored) = a.written.stored_values(lo, hi, a.data_len) else {
                return Val::Top; // a write of unknown value may land here
            };
            // Every word in the range holds either its initial value (the
            // data image / zero fill) or some stored value, so the join of
            // both contributions covers the load.
            let (mut mn, mut mx) = (u32::MAX, 0u32);
            if lo < a.data_len {
                let (m, x) = a.minmax.query(lo as usize, hi.min(a.data_len - 1) as usize);
                mn = mn.min(m);
                mx = mx.max(x);
            }
            if hi >= a.data_len {
                // Words past the data image are zero-filled.
                mn = 0;
            }
            let mut iv = Interval::new(mn as i64, mx as i64);
            if let Some(w) = stored {
                iv = iv.join(w);
            }
            Val::Num(iv)
        }
    }
}

/// A store's effect on the frame model (the written-set contribution is
/// collected by the sweep, not here).
fn store_effect(env: &mut Env, addr: &Address, class: &AccessClass, src: Reg, a: &ACtx) {
    match *addr {
        Address::Sp { lo, hi } if lo == hi => {
            env.frame.insert(lo, env.regs[src.index()]);
        }
        Address::Sp { .. } => env.frame.clear(),
        Address::Unknown => env.frame.clear(),
        Address::Num { lo, hi } => {
            // A numeric store that might land in the stack region may
            // alias our frame slots.
            let stack_hi = 1i64 << 20;
            let may_hit_stack = hi >= a.data_len && lo < stack_hi;
            if may_hit_stack || !matches!(class, AccessClass::InBounds { .. }) {
                env.frame.clear();
            }
        }
    }
}

/// Applies callee summaries at a call site.
fn apply_call(env: &mut Env, callees: &[FuncId], known: bool, a: &ACtx) {
    if !known {
        env.regs = [Val::Top; 32];
        env.frame.clear();
        return;
    }
    let mut regs = [Val::Top; 32];
    for (r, slot) in regs.iter_mut().enumerate() {
        let mut acc: Option<Val> = None;
        for &f in callees {
            let v = match a.summaries[f.index()].effects[r] {
                Effect::Preserved => env.regs[r],
                Effect::Value(iv) => Val::from_interval(iv),
                Effect::Top => Val::Top,
            };
            acc = Some(match acc {
                None => v,
                Some(x) => join_val(x, v, false),
            });
        }
        *slot = acc.unwrap_or(Val::Top);
    }
    env.regs = regs;
    // Frame slots survive iff every callee's transitive stores stay
    // strictly below its entry SP — which is our SP at the call, itself at
    // or below our own entry SP whenever we still have frame knowledge.
    let sp_at_call_safe = matches!(env.regs[SP.index()], Val::SpRel(_, h) if h <= 0);
    let all_safe = callees.iter().all(|&f| a.summaries[f.index()].frame_safe);
    if !(all_safe && sp_at_call_safe) {
        env.frame.clear();
    }
}

// ---------------------------------------------------------------------
// The per-function dataflow problem
// ---------------------------------------------------------------------

/// Trip-count-assisted cap for one loop: a register incremented only by
/// constants inside a loop with a known trip bound cannot climb more than
/// `step * back_edges` above its value at loop entry. This recovers the
/// pointer-increment idiom (`p += 1` bounded by a separate counter) that
/// pure interval analysis widens to ⊤.
#[derive(Debug, Clone)]
struct LoopCap {
    header: BlockId,
    /// Sorted body blocks (from the natural loop).
    body: Vec<BlockId>,
    /// Maximum back-edge traversals per external entry.
    back_edges: u64,
    /// `(reg, max total increment per traversal)`.
    cappable: Vec<(usize, i64)>,
}

/// Computes the loop caps for one function. Loops with unknown trip
/// bounds, and functions with irreducible control flow (where a block can
/// re-execute without crossing a detected loop header), produce no caps.
fn loop_caps(program: &Program, cfg: &Cfg) -> Vec<LoopCap> {
    if !reducible(cfg) {
        return Vec::new();
    }
    let bounds = loop_bounds(program, cfg);
    let mut caps = Vec::new();
    for lb in &bounds {
        let TripBound::AtMost(n) = lb.bound else {
            continue;
        };
        let l = &lb.natural;
        // Blocks of inner loops run more than once per traversal of `l`;
        // increments there cannot be counted.
        let in_inner = |b: BlockId| {
            bounds.iter().any(|other| {
                other.natural.header != l.header
                    && l.contains(other.natural.header)
                    && other.natural.contains(b)
            })
        };
        let mut cappable = Vec::new();
        'reg: for r in 0..32 {
            let mut step_sum = 0i64;
            let mut wrote = false;
            for &b in &l.body {
                for pc in cfg.block(b).range() {
                    let Some(inst) = program.fetch(Addr(pc)) else {
                        continue;
                    };
                    let writes_r = matches!(
                        inst,
                        Instruction::LoadImm { rd, .. }
                        | Instruction::Op { rd, .. }
                        | Instruction::OpImm { rd, .. }
                        | Instruction::Load { rd, .. } if rd.index() == r
                    );
                    if !writes_r {
                        continue;
                    }
                    wrote = true;
                    match inst {
                        Instruction::OpImm {
                            op: AluOp::Add,
                            rd,
                            rs1,
                            imm,
                        } if rd == rs1 && imm >= 0 && !in_inner(b) => {
                            step_sum += imm as i64;
                        }
                        _ => continue 'reg,
                    }
                }
            }
            // A call in the loop may write anything; trip.rs already
            // rejects such loops, so every write is accounted for here.
            if wrote {
                cappable.push((r, step_sum));
            }
        }
        if !cappable.is_empty() {
            caps.push(LoopCap {
                header: l.header,
                body: l.body.clone(),
                back_edges: n.saturating_sub(1),
                cappable,
            });
        }
    }
    caps
}

/// `true` if deleting all back edges (edges to a dominator) leaves the
/// graph acyclic — the precondition for trusting loop-body block sets.
fn reducible(cfg: &Cfg) -> bool {
    let n = cfg.blocks().len();
    let dom = cfg.dominators();
    let mut indeg = vec![0usize; n];
    let fwd: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            cfg.block(BlockId(i as u32))
                .succs()
                .iter()
                .filter(|e| !dom.dominates(e.to, BlockId(i as u32)))
                .map(|e| e.to.index())
                .collect()
        })
        .collect();
    for succs in &fwd {
        for &t in succs {
            indeg[t] += 1;
        }
    }
    let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut seen = 0;
    while let Some(b) = stack.pop() {
        seen += 1;
        for &t in &fwd[b] {
            indeg[t] -= 1;
            if indeg[t] == 0 {
                stack.push(t);
            }
        }
    }
    seen == n
}

struct FuncBounds<'a> {
    a: &'a ACtx<'a>,
    program: &'a Program,
    entry_env: Env,
    caps: &'a [LoopCap],
    /// Per-loop numeric baseline at loop entry, computed from a previous
    /// (sound, cap-free or looser-capped) solution of the same function.
    /// `None` disables capping for that loop.
    baselines: Vec<Option<[Interval; 32]>>,
}

impl Analysis for FuncBounds<'_> {
    type Fact = Fact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self) -> Fact {
        None
    }

    fn boundary(&self, _t: Terminator) -> Fact {
        Some(self.entry_env.clone())
    }

    fn join(&self, into: &mut Fact, from: &Fact, joins: u32) -> bool {
        let Some(from) = from else { return false };
        match into {
            None => {
                *into = Some(from.clone());
                true
            }
            Some(env) => join_env(env, from, joins >= WIDEN_AFTER),
        }
    }

    fn transfer(&self, cfg: &Cfg, block: BlockId, fact: &Fact) -> Fact {
        let env = fact.as_ref()?;
        let mut env = env.clone();
        for pc in cfg.block(block).range() {
            if let Some(inst) = self.program.fetch(Addr(pc)) {
                exec_inst(&mut env, Addr(pc), &inst, self.a);
            }
        }
        Some(env)
    }

    fn refine(&self, cfg: &Cfg, from: BlockId, edge: Edge, fact: Fact) -> Fact {
        let env = fact?;
        let b = cfg.block(from);
        let refined = 'branch: {
            if b.terminator() != Terminator::CondBranch {
                break 'branch Some(env);
            }
            let Some(Instruction::Branch { cond, rs1, rs2, .. }) = self.program.fetch(b.last())
            else {
                break 'branch Some(env);
            };
            let taken = match edge.kind {
                EdgeKind::Taken => true,
                EdgeKind::FallThrough => false,
                _ => break 'branch Some(env),
            };
            let cond = if taken { cond } else { negate(cond) };
            refine_branch(env, cond, rs1, rs2)
        };
        let mut env = refined?;
        // Trip-count caps on back edges: each register incremented only by
        // constants inside the loop is bounded by its value at loop entry
        // plus step × back-edge count.
        for (i, cap) in self.caps.iter().enumerate() {
            if edge.to != cap.header || cap.body.binary_search(&from).is_err() {
                continue;
            }
            let Some(base) = self.baselines.get(i).copied().flatten() else {
                continue;
            };
            for &(r, step) in &cap.cappable {
                if base[r].is_full() {
                    continue;
                }
                let hi = base[r]
                    .hi
                    .saturating_add(step.saturating_mul(cap.back_edges as i64));
                let bound = Interval::new(base[r].lo, hi.min(u32::MAX as i64));
                if let Some(m) = env.regs[r].numeric().meet(bound) {
                    env.regs[r] = narrow(env.regs[r], m);
                }
            }
        }
        Some(env)
    }
}

/// Solves one function: a cap-free widened pass first, then up to two
/// narrowing rounds where loop-cap baselines are derived from the previous
/// (sound) solution and the function is re-solved with them. Every round
/// is independently sound, so stopping after any round is safe.
fn solve_func(
    a: &ACtx,
    program: &Program,
    cfg: &Cfg,
    caps: &[LoopCap],
    entry: Env,
) -> dataflow::Solution<Fact> {
    let mut baselines: Vec<Option<[Interval; 32]>> = vec![None; caps.len()];
    let mut analysis = FuncBounds {
        a,
        program,
        entry_env: entry.clone(),
        caps,
        baselines: baselines.clone(),
    };
    let mut sol = dataflow::solve(&analysis, cfg);
    for _ in 0..2 {
        if caps.is_empty() {
            break;
        }
        let next = compute_baselines(&analysis, cfg, caps, &sol);
        if next == baselines {
            break;
        }
        baselines = next;
        analysis = FuncBounds {
            a,
            program,
            entry_env: entry.clone(),
            caps,
            baselines: baselines.clone(),
        };
        sol = dataflow::solve(&analysis, cfg);
    }
    sol
}

/// Per-loop numeric join of everything flowing into the header from
/// outside the loop, under `sol` (including the boundary fact when the
/// header is the function entry block).
fn compute_baselines(
    analysis: &FuncBounds,
    cfg: &Cfg,
    caps: &[LoopCap],
    sol: &dataflow::Solution<Fact>,
) -> Vec<Option<[Interval; 32]>> {
    let fold = |acc: &mut Option<[Interval; 32]>, env: &Env| match acc {
        None => {
            let mut base = [Interval::full(); 32];
            for (r, slot) in base.iter_mut().enumerate() {
                *slot = env.regs[r].numeric();
            }
            *acc = Some(base);
        }
        Some(base) => {
            for (r, slot) in base.iter_mut().enumerate() {
                *slot = slot.join(env.regs[r].numeric());
            }
        }
    };
    caps.iter()
        .map(|cap| {
            let mut acc: Option<[Interval; 32]> = None;
            if cap.header == cfg.entry() {
                fold(&mut acc, &analysis.entry_env);
            }
            for (pi, blk) in cfg.blocks().iter().enumerate() {
                let p = BlockId(pi as u32);
                if cap.body.binary_search(&p).is_ok() {
                    continue;
                }
                for &e in blk.succs() {
                    if e.to != cap.header {
                        continue;
                    }
                    if let Some(env) = analysis.refine(cfg, p, e, sol.exit[pi].clone()) {
                        fold(&mut acc, &env);
                    }
                }
            }
            acc
        })
        .collect()
}

fn negate(c: Cond) -> Cond {
    match c {
        Cond::Eq => Cond::Ne,
        Cond::Ne => Cond::Eq,
        Cond::Lt => Cond::Ge,
        Cond::Ge => Cond::Lt,
        Cond::Ltu => Cond::Geu,
        Cond::Geu => Cond::Ltu,
    }
}

/// Narrows `env` with the knowledge that `cond(rs1, rs2)` held. Returns
/// `None` when the condition is infeasible (the edge is dead).
fn refine_branch(mut env: Env, cond: Cond, rs1: Reg, rs2: Reg) -> Fact {
    let a = env.regs[rs1.index()];
    let b = env.regs[rs2.index()];
    // SpRel values have no usable numeric bound; leave them alone.
    if matches!(a, Val::SpRel(..)) || matches!(b, Val::SpRel(..)) {
        return Some(env);
    }
    let (x, y) = (a.numeric(), b.numeric());
    // Signed compares are only decidable as unsigned when both sides stay
    // in the non-negative i32 range.
    let signed_ok = x.hi <= i32::MAX as i64 && y.hi <= i32::MAX as i64;
    let (nx, ny) = match cond {
        Cond::Eq => match x.meet(y) {
            None => return None,
            Some(m) => (Some(m), Some(m)),
        },
        Cond::Ne => {
            if x.as_singleton().is_some() && x == y {
                return None;
            }
            (None, None)
        }
        Cond::Ltu | Cond::Lt if cond == Cond::Ltu || signed_ok => {
            if y.hi == 0 {
                return None; // nothing is unsigned-less-than 0
            }
            let nx = x.meet(Interval::new(0, y.hi - 1));
            let ny = y.meet(Interval::new(x.lo + 1, u32::MAX as i64));
            match (nx, ny) {
                (Some(nx), Some(ny)) => (Some(nx), Some(ny)),
                _ => return None,
            }
        }
        Cond::Geu | Cond::Ge if cond == Cond::Geu || signed_ok => {
            let nx = x.meet(Interval::new(y.lo, u32::MAX as i64));
            let ny = y.meet(Interval::new(0, x.hi));
            match (nx, ny) {
                (Some(nx), Some(ny)) => (Some(nx), Some(ny)),
                _ => return None,
            }
        }
        _ => (None, None),
    };
    if let Some(nx) = nx {
        env.regs[rs1.index()] = narrow(a, nx);
    }
    if let Some(ny) = ny {
        env.regs[rs2.index()] = narrow(b, ny);
    }
    Some(env)
}

/// Replaces a value's numeric bound, keeping Entry identity.
fn narrow(v: Val, iv: Interval) -> Val {
    match v {
        Val::Entry(r, _) => Val::Entry(r, iv),
        _ => Val::from_interval(iv),
    }
}

// ---------------------------------------------------------------------
// Interprocedural driver
// ---------------------------------------------------------------------

/// What one stable-function sweep collects.
struct Sweep {
    summary: FnSummary,
    /// Per-callee numeric entry bounds observed at call sites.
    callee_ctx: Vec<(FuncId, [Interval; 32])>,
    /// Written-set contributions `(lo, hi, stored values)`.
    writes: Vec<(i64, i64, Interval)>,
    writes_stack: bool,
    writes_all: bool,
    claims: Vec<MemClaim>,
}

fn entry_env(is_entry: bool, ctx: &[Interval; 32]) -> Env {
    let mut regs = [Val::Top; 32];
    if is_entry {
        // Architectural state: every register starts at zero.
        for r in regs.iter_mut() {
            *r = Val::Num(Interval::exact(0));
        }
    } else {
        for (i, r) in regs.iter_mut().enumerate() {
            *r = Val::Entry(Reg(i as u8), ctx[i]);
        }
        regs[SP.index()] = Val::SpRel(0, 0);
    }
    Env {
        regs,
        frame: BTreeMap::new(),
    }
}

/// Re-walks a solved function, collecting summary/context/written-set
/// facts and (for the final round) per-access claims.
fn sweep_function(cfg: &Cfg, sol: &dataflow::Solution<Fact>, a: &ACtx) -> Sweep {
    let mut sweep = Sweep {
        summary: FnSummary::optimistic(),
        callee_ctx: Vec::new(),
        writes: Vec::new(),
        writes_stack: false,
        writes_all: false,
        claims: Vec::new(),
    };
    let mut exit_env: Option<Env> = None;
    let mut frame_safe = true;
    let mut returns = false;

    for (bi, block) in cfg.blocks().iter().enumerate() {
        let Some(env) = sol.entry[bi].as_ref() else {
            continue; // unreachable within the function
        };
        let mut env = env.clone();
        for pc in block.range() {
            let Some(inst) = a.program.fetch(Addr(pc)) else {
                continue;
            };
            // Pre-instruction observations (exec_inst mutates env).
            let (pre_store_addr, pre_store_val) = match inst {
                Instruction::Store { src, base, offset } => (
                    Some(address_of(&env, base, offset)),
                    env.regs[src.index()].numeric(),
                ),
                _ => (None, Interval::full()),
            };
            let pre_ctx = if matches!(
                inst,
                Instruction::Call { .. } | Instruction::CallIndirect { .. }
            ) {
                let mut ctx = [Interval::full(); 32];
                for (i, c) in ctx.iter_mut().enumerate() {
                    *c = env.regs[i].numeric();
                }
                Some(ctx)
            } else {
                None
            };
            let step = exec_inst(&mut env, Addr(pc), &inst, a);
            match step {
                Step::None => {}
                Step::Mem { access } => {
                    sweep.claims.push(access);
                    if access.store {
                        match access.class {
                            AccessClass::StackAssumed => {
                                sweep.writes_stack = true;
                                // Frame-safe only when the slot is provably
                                // strictly below the entry SP.
                                let below = matches!(
                                    pre_store_addr,
                                    Some(Address::Sp { hi, .. }) if hi < 0
                                );
                                if !below {
                                    frame_safe = false;
                                }
                            }
                            AccessClass::InBounds { lo, hi } | AccessClass::Unproven { lo, hi } => {
                                let clo = lo.max(0);
                                let chi = hi.min(a.mem_len - 1);
                                if chi - clo > a.mem_len / 2 {
                                    sweep.writes_all = true;
                                } else if clo <= chi {
                                    sweep.writes.push((clo, chi, pre_store_val));
                                }
                                // A numeric store that might hit the stack
                                // region breaks frame safety.
                                if chi >= a.data_len && clo < (1 << 20) {
                                    frame_safe = false;
                                }
                            }
                            AccessClass::OutOfBounds { .. } => {}
                        }
                    }
                }
                Step::Call { callees, known } => {
                    if !known {
                        frame_safe = false;
                        sweep.writes_all = true;
                    }
                    for &c in &callees {
                        if !a.summaries[c.index()].frame_safe {
                            frame_safe = false;
                        }
                    }
                    if let Some(ctx) = pre_ctx {
                        for &cal in &callees {
                            sweep.callee_ctx.push((cal, ctx));
                        }
                    }
                }
            }
        }
        if block.terminator() == Terminator::Return {
            returns = true;
            match &mut exit_env {
                None => exit_env = Some(env),
                Some(acc) => {
                    join_env(acc, &env, false);
                }
            }
        }
    }

    sweep.summary.frame_safe = frame_safe;
    if returns {
        if let Some(exit) = exit_env {
            for (r, eff) in sweep.summary.effects.iter_mut().enumerate() {
                *eff = match exit.regs[r] {
                    Val::Entry(s, iv) => {
                        if s.index() == r {
                            Effect::Preserved
                        } else {
                            Effect::Value(iv)
                        }
                    }
                    Val::Num(iv) => Effect::Value(iv),
                    Val::SpRel(0, 0) if r == SP.index() => Effect::Preserved,
                    Val::SpRel(..) | Val::Top => Effect::Top,
                };
            }
        }
    }
    // A function that never returns (halts) keeps the optimistic summary:
    // callers never resume, so Preserved-everything is vacuously sound.
    sweep
}

/// Runs the full interprocedural bounds analysis.
pub fn check(program: &Program) -> BoundsReport {
    let nfuncs = program.functions().len();
    if nfuncs == 0 || program.is_empty() {
        return BoundsReport {
            diags: Vec::new(),
            claims: Vec::new(),
        };
    }
    let cfgs: Vec<Cfg> = (0..nfuncs)
        .map(|i| Cfg::build(program, FuncId(i as u32)))
        .collect();
    let all_caps: Vec<Vec<LoopCap>> = cfgs.iter().map(|c| loop_caps(program, c)).collect();
    let data_len = program.initial_data().len() as i64;
    let mem_len = memory_words(program) as i64;
    let minmax = DataMinMax::build(program.initial_data());
    let order = dataflow::call_order(program);
    let entry_f = program.entry_function();

    let mut summaries = vec![FnSummary::optimistic(); nfuncs];
    let mut ctxs: Vec<Option<[Interval; 32]>> = vec![None; nfuncs];
    ctxs[entry_f.index()] = Some([Interval::exact(0); 32]);
    let mut ctx_joins = vec![0u32; nfuncs];
    let mut written = Written::default();

    for round in 0..MAX_ROUNDS {
        let mut changed = false;
        for &f in &order {
            let Some(ctx) = ctxs[f.index()] else { continue };
            let sweep = {
                let a = ACtx {
                    program,
                    mem_len,
                    data_len,
                    summaries: &summaries,
                    written: &written,
                    minmax: &minmax,
                };
                let sol = solve_func(
                    &a,
                    program,
                    &cfgs[f.index()],
                    &all_caps[f.index()],
                    entry_env(f == entry_f, &ctx),
                );
                sweep_function(&cfgs[f.index()], &sol, &a)
            };
            if summaries[f.index()] != sweep.summary {
                summaries[f.index()] = sweep.summary;
                changed = true;
            }
            for (callee, bounds) in sweep.callee_ctx {
                let slot = &mut ctxs[callee.index()];
                match slot {
                    None => {
                        *slot = Some(bounds);
                        changed = true;
                    }
                    Some(cur) => {
                        let widen = ctx_joins[callee.index()] >= WIDEN_AFTER;
                        let mut grew = false;
                        for i in 0..32 {
                            let j = join_interval(cur[i], bounds[i], widen);
                            if j != cur[i] {
                                cur[i] = j;
                                grew = true;
                            }
                        }
                        if grew {
                            ctx_joins[callee.index()] += 1;
                            changed = true;
                        }
                    }
                }
            }
            for (lo, hi, val) in sweep.writes {
                changed |= written.add(lo, hi, val);
            }
            if sweep.writes_stack {
                changed |= written.set_stack();
            }
            if sweep.writes_all {
                changed |= written.set_all();
            }
        }
        if !changed {
            break;
        }
        if round == MAX_ROUNDS - 1 {
            // No convergence: fall back to trivially sound inputs.
            summaries = vec![FnSummary::pessimistic(); nfuncs];
            ctxs = vec![Some([Interval::full(); 32]); nfuncs];
            ctxs[entry_f.index()] = Some([Interval::exact(0); 32]);
            written.set_all();
        }
    }

    // Final sweep: every function (unreached ones under a full context,
    // so their dead code is still classified — conservatively).
    let a = ACtx {
        program,
        mem_len,
        data_len,
        summaries: &summaries,
        written: &written,
        minmax: &minmax,
    };
    let mut diags = Vec::new();
    let mut claims = Vec::new();
    for i in 0..nfuncs {
        let f = FuncId(i as u32);
        let ctx = ctxs[i].unwrap_or([Interval::full(); 32]);
        let sol = solve_func(
            &a,
            program,
            &cfgs[i],
            &all_caps[i],
            entry_env(f == entry_f, &ctx),
        );
        let sweep = sweep_function(&cfgs[i], &sol, &a);
        for c in sweep.claims {
            match c.class {
                AccessClass::OutOfBounds { lo, hi } => diags.push(
                    Diagnostic::new(
                        &codes::OOB_ACCESS,
                        format!(
                            "{} provably out of bounds: address in {} but memory has {} words",
                            dir(c.store),
                            fmt_range(lo, hi),
                            mem_len
                        ),
                    )
                    .at(c.pc),
                ),
                AccessClass::Unproven { lo, hi } => diags.push(
                    Diagnostic::new(
                        &codes::UNPROVEN_ACCESS,
                        format!(
                            "{} not provably in bounds: derived address interval {} \
                             straddles the {}-word memory",
                            dir(c.store),
                            fmt_range(lo, hi),
                            mem_len
                        ),
                    )
                    .at(c.pc),
                ),
                AccessClass::StackAssumed => diags.push(
                    Diagnostic::new(
                        &codes::STACK_ASSUMED,
                        format!(
                            "{} is stack-relative; in bounds under the bounded-stack assumption",
                            dir(c.store)
                        ),
                    )
                    .at(c.pc),
                ),
                AccessClass::InBounds { .. } => {}
            }
            claims.push(c);
        }
    }
    BoundsReport { diags, claims }
}

fn dir(store: bool) -> &'static str {
    if store {
        "store"
    } else {
        "load"
    }
}

fn fmt_range(lo: i64, hi: i64) -> String {
    if lo == hi {
        format!("{lo}")
    } else {
        format!("[{lo}, {hi}]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use multiscalar_isa::ProgramBuilder;

    fn severities(r: &BoundsReport) -> (usize, usize, usize) {
        let count = |s: Severity| r.diags.iter().filter(|d| d.severity == s).count();
        (
            count(Severity::Error),
            count(Severity::Warning),
            count(Severity::Note),
        )
    }

    /// Adversarial fixture: a store whose address is a compile-time
    /// constant one past the end of memory. Must be a hard error.
    #[test]
    fn provably_oob_store_is_an_error() {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.load_imm(Reg(1), 1 << 20);
        b.store(Reg(2), Reg(1), 0);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let r = check(&p);
        let (errors, _, _) = severities(&r);
        assert_eq!(errors, 1, "{:?}", r.diags);
        assert!(r.diags[0].render(&p).contains("error[bounds][E050]"));
        assert!(r.claims.iter().any(|c| c.store
            && matches!(c.class, AccessClass::OutOfBounds { lo, hi }
                if lo == 1 << 20 && hi == 1 << 20)));
    }

    /// An address derived from an unknown value via an AND mask is proved
    /// in bounds — no diagnostics at all.
    #[test]
    fn masked_computed_index_is_proved_in_bounds() {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        // An indirect call with undeclared targets makes every register
        // unknown — the strongest adversarial starting point.
        b.call_indirect(Reg(0));
        b.op_imm(AluOp::And, Reg(1), Reg(1), 63);
        b.load(Reg(2), Reg(1), 0);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let r = check(&p);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert!(r
            .claims
            .iter()
            .any(|c| !c.store && matches!(c.class, AccessClass::InBounds { lo: 0, hi: 63 })));
    }

    /// An unmasked unknown index is a W050 warning, not an error.
    #[test]
    fn unknown_index_is_an_unproven_warning() {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        b.call_indirect(Reg(0)); // all registers unknown from here
        b.store(Reg(2), Reg(1), 0);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let r = check(&p);
        let (errors, warnings, _) = severities(&r);
        assert_eq!((errors, warnings), (0, 1), "{:?}", r.diags);
        assert!(r.diags[0].render(&p).contains("warning[bounds][W050]"));
    }

    /// A branch guard refines the index interval: `if r1 <u 64` proves the
    /// guarded load.
    #[test]
    fn branch_guard_refines_the_index() {
        let mut b = ProgramBuilder::new();
        let main = b.begin_function("main");
        let ok = b.new_label();
        b.call_indirect(Reg(0)); // all registers unknown from here
        b.load_imm(Reg(2), 64);
        b.branch(Cond::Ltu, Reg(1), Reg(2), ok);
        b.halt();
        b.bind(ok);
        b.load(Reg(3), Reg(1), 0);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let r = check(&p);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
        assert!(r
            .claims
            .iter()
            .any(|c| matches!(c.class, AccessClass::InBounds { lo: 0, hi: 63 })));
    }

    /// Stack traffic in a callee is note-level only, the saved register is
    /// proven preserved across the call, and the caller's post-call use of
    /// it stays provably in bounds.
    #[test]
    fn callee_saved_register_survives_and_stack_is_a_note() {
        let mut b = ProgramBuilder::new();
        let f = b.begin_function("f");
        b.op_imm(AluOp::Sub, SP, SP, 2);
        b.store(Reg(5), SP, 0);
        b.load_imm(Reg(5), 9999);
        b.load(Reg(5), SP, 0);
        b.op_imm(AluOp::Add, SP, SP, 2);
        b.ret();
        b.end_function();
        let main = b.begin_function("main");
        b.load_imm(Reg(5), 3);
        b.call_label(f);
        b.store(Reg(0), Reg(5), 0);
        b.halt();
        b.end_function();
        let p = b.finish(main).unwrap();
        let r = check(&p);
        let (errors, warnings, notes) = severities(&r);
        assert_eq!((errors, warnings), (0, 0), "{:?}", r.diags);
        assert!(notes >= 2, "{:?}", r.diags); // the SP-relative save + restore
        assert!(
            r.claims
                .iter()
                .any(|c| c.store && matches!(c.class, AccessClass::InBounds { lo: 3, hi: 3 })),
            "{:?}",
            r.claims
        );
    }
}
