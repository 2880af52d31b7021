use crate::lit::{Lit, Var};

/// Outcome of a satisfiability query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatResult {
    /// A satisfying assignment exists (retrieve it with
    /// [`Solver::value`]).
    Sat,
    /// No satisfying assignment exists (under the given assumptions).
    Unsat,
}

/// Running counters, useful for attack-effort reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses added.
    pub learnt_clauses: u64,
}

const VAR_DECAY: f64 = 0.95;
const ACTIVITY_RESCALE: f64 = 1e100;
const LUBY_UNIT: u64 = 64;

/// Truth values, one byte per literal.
const FALSE: u8 = 0;
const TRUE: u8 = 1;
const UNDEF: u8 = 2;

/// Tag of a binary-clause reason; the low 31 bits are the clause's
/// false literal. Untagged reasons are arena offsets.
const BINARY: u32 = 1 << 31;
/// The reason of a decision or of a level-0 fact.
const NO_REASON: u32 = u32::MAX;
/// Variables stay below this, so every literal index stays below
/// 2^31 - 1 and a tagged binary reason below [`NO_REASON`].
const MAX_VARS: usize = (1 << 30) - 1;

/// One entry of a watch list: the arena offset of a clause of three or
/// more literals or, tagged with `BINARY`, the other literal of a binary
/// clause, which lives only in its two watches.
#[derive(Debug, Clone, Copy)]
struct Watch(u32);

/// The clause a propagation stopped on, in the order analysis reads it.
enum Conflict {
    /// A long clause, normalized in the arena: its two false watches
    /// first, the one that just became false in slot 1.
    Long(u32),
    /// A binary clause: the other literal, then the one that just became
    /// false.
    Binary([Lit; 2]),
}

/// A CDCL SAT solver: two-literal watching, VSIDS, first-UIP learning,
/// Luby restarts, phase saving, incremental solving under assumptions.
///
/// Storage is flat. Clauses of three or more literals sit back to back
/// in one `u32` arena as `[len, lit…]`, addressed by offset. A binary
/// clause lives only in its two 4-byte watch-list entries, each holding
/// the literal the clause implies when the watched one becomes false,
/// so a binary reason is just the clause's false literal. Truth values
/// are one byte per literal and reasons one `u32` per variable. No
/// clause is ever deleted, so offsets stay valid for the solver's life.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Solver {
    /// Clauses of three or more literals: `[len, lit…]` each, addressed
    /// by the offset of `len`. Slots 0 and 1 hold the watched literals.
    arena: Vec<u32>,
    /// Problem plus learnt clauses, binary ones included.
    clauses: usize,
    /// `watches[l.index()]` lists clauses currently watching literal `l`;
    /// they are inspected when `l` becomes false.
    watches: Vec<Vec<Watch>>,
    /// Truth value per literal (`TRUE`, `FALSE` or `UNDEF`).
    value: Vec<u8>,
    level: Vec<u32>,
    /// Per variable: the implying clause's arena offset, `BINARY` | the
    /// false literal of an implying binary clause, or `NO_REASON`.
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: OrderHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// Literal values of the last satisfying assignment.
    model: Vec<u8>,
    /// One clause buffer, reused: `add_clause`'s simplified clause, then
    /// each learnt clause.
    scratch: Vec<Lit>,
    ok: bool,
    stats: SolverStats,
}

impl Default for Solver {
    /// An empty solver, the same as [`Solver::new`].
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            arena: Vec::new(),
            clauses: 0,
            watches: Vec::new(),
            value: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: OrderHeap::default(),
            phase: Vec::new(),
            seen: Vec::new(),
            model: Vec::new(),
            scratch: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
        }
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of problem plus learnt clauses currently stored.
    pub fn num_clauses(&self) -> usize {
        self.clauses
    }

    /// Solver counters.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Allocates a fresh variable.
    ///
    /// # Panics
    ///
    /// Panics past 2^30 - 1 variables, the width a tagged binary reason
    /// leaves for a literal.
    pub fn new_var(&mut self) -> Var {
        // Invariant: literal indices stay below 2^31 - 1 (see BINARY).
        // A variable costs ~80 bytes of solver state, so the limit sits
        // at ~80 GiB, far past any encoding here.
        assert!(self.num_vars() < MAX_VARS, "more than 2^30 - 1 variables");
        let v = Var::from_index(self.num_vars());
        self.value.extend([UNDEF, UNDEF]);
        self.model.extend([UNDEF, UNDEF]);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.insert(v, &self.activity);
        v
    }

    /// The model value of `v` after a [`SatResult::Sat`] answer.
    ///
    /// Returns `None` before the first satisfiable solve or for variables
    /// created *after* it. Within one solve the answer is total: the
    /// search only reports [`SatResult::Sat`] once the branching heap is
    /// exhausted, i.e. every variable that existed at solve time —
    /// including variables in no clause — carries `Some` value (the
    /// `sat_models_are_total` regression test pins this invariant, which
    /// DIP extraction in `sttlock-attack` relies on).
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.model[Lit::pos(v).index()] {
            TRUE => Some(true),
            FALSE => Some(false),
            _ => None,
        }
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Returns `false` if the solver is already in an unsatisfiable state
    /// (adding to a dead solver is permitted and ignored).
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        // Every solve returns at level 0, so clauses always arrive there.
        debug_assert_eq!(self.decision_level(), 0);
        // Simplify: dedupe, drop false literals, detect tautology/satisfied.
        let mut c = std::mem::take(&mut self.scratch);
        c.clear();
        let mut satisfied = false;
        for &l in lits {
            assert!(
                l.var().index() < self.num_vars(),
                "unallocated variable {l}"
            );
            match self.value[l.index()] {
                TRUE => {
                    satisfied = true; // satisfied at level 0
                    break;
                }
                FALSE => continue, // false at level 0: drop literal
                _ => {}
            }
            if c.contains(&!l) {
                satisfied = true; // tautology
                break;
            }
            if !c.contains(&l) {
                c.push(l);
            }
        }
        let ok = if satisfied {
            true
        } else {
            match c[..] {
                [] => {
                    self.ok = false;
                    false
                }
                [unit] => {
                    self.enqueue(unit, NO_REASON);
                    self.ok = self.propagate().is_none();
                    self.ok
                }
                _ => {
                    self.attach(&c);
                    true
                }
            }
        };
        self.scratch = c;
        ok
    }

    /// Stores a clause of two or more literals and watches its first two.
    /// Returns the reason under which the clause implies `lits[0]`.
    fn attach(&mut self, lits: &[Lit]) -> u32 {
        self.clauses += 1;
        if let [a, b] = *lits {
            self.watches[a.index()].push(Watch(BINARY | b.0));
            self.watches[b.index()].push(Watch(BINARY | a.0));
            return BINARY | b.0;
        }
        // Invariant: arena offsets stay below 2^31, so a long reason
        // never carries the BINARY tag. That is 8 GiB of clauses, far
        // past any encoding here.
        assert!(
            self.arena.len() < BINARY as usize,
            "clause arena past 2^31 words"
        );
        let cref = self.arena.len() as u32;
        self.arena.push(lits.len() as u32);
        self.arena.extend(lits.iter().map(|l| l.0));
        self.watches[lits[0].index()].push(Watch(cref));
        self.watches[lits[1].index()].push(Watch(cref));
        cref
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.value[l.index()], UNDEF);
        self.value[l.index()] = TRUE;
        self.value[(!l).index()] = FALSE;
        let v = l.var().index();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
        self.stats.propagations += 1;
    }

    /// Unit propagation; returns the conflicting clause, if any.
    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            // Literals equal to `false_lit` just became false. Their list
            // is detached while it is walked: a moved watch only ever
            // lands on a literal that is not false.
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let conflict = self.propagate_watches(false_lit, &mut ws);
            self.watches[false_lit.index()] = ws;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    /// Visits the clauses watching `false_lit`, in list order. A clause
    /// whose other watch is true is skipped as it stands; one that finds
    /// a replacement watch leaves the list by `swap_remove`; one that
    /// implies or conflicts is written with its false watch in slot 1,
    /// the order conflict analysis reads.
    fn propagate_watches(&mut self, false_lit: Lit, ws: &mut Vec<Watch>) -> Option<Conflict> {
        let mut i = 0;
        while i < ws.len() {
            let Watch(w) = ws[i];
            i += 1;
            if w & BINARY != 0 {
                let other = Lit(w & !BINARY);
                match self.value[other.index()] {
                    TRUE => {}
                    FALSE => return Some(Conflict::Binary([other, false_lit])),
                    _ => self.enqueue(other, BINARY | false_lit.0),
                }
                continue;
            }
            // The skip test reads only the two watches, ahead of the
            // length: most visits end here.
            let c = w as usize;
            let (w0, w1) = (self.arena[c + 1], self.arena[c + 2]);
            let other = if w0 == false_lit.0 { w1 } else { w0 };
            let other_value = self.value[other as usize];
            if other_value == TRUE {
                continue;
            }
            let len = self.arena[c] as usize;
            let lits = &mut self.arena[c + 1..c + 1 + len];
            // Look for a replacement watch.
            let value = &self.value;
            if let Some(k) = (2..len).find(|&k| value[lits[k] as usize] != FALSE) {
                let cand = lits[k];
                lits[0] = other;
                lits[1] = cand;
                lits[k] = false_lit.0;
                // The list's last watch moves into this slot: visit it
                // next.
                i -= 1;
                ws.swap_remove(i);
                self.watches[cand as usize].push(Watch(w));
                continue;
            }
            // No replacement: clause is unit or conflicting.
            lits[0] = other;
            lits[1] = false_lit.0;
            if other_value == FALSE {
                return Some(Conflict::Long(w));
            }
            self.enqueue(Lit(other), w);
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > ACTIVITY_RESCALE {
            for a in self.activity.iter_mut() {
                *a *= 1.0 / ACTIVITY_RESCALE;
            }
            self.var_inc *= 1.0 / ACTIVITY_RESCALE;
        }
        self.heap.bumped(v, &self.activity);
    }

    /// One literal of a clause under analysis: a current-level literal
    /// counts toward the UIP, a lower-level one joins the learnt clause.
    fn analyze_lit(&mut self, q: Lit, counter: &mut usize, learnt: &mut Vec<Lit>) {
        let v = q.var();
        if !self.seen[v.index()] && self.level[v.index()] > 0 {
            self.seen[v.index()] = true;
            self.bump_var(v);
            if self.level[v.index()] == self.decision_level() {
                *counter += 1;
            } else {
                learnt.push(q);
            }
        }
    }

    /// First-UIP conflict analysis. Leaves the learnt clause (asserting
    /// literal first) in `scratch` and returns the backjump level.
    fn analyze(&mut self, conflict: Conflict) -> u32 {
        let mut learnt = std::mem::take(&mut self.scratch);
        learnt.clear();
        learnt.push(Lit(0)); // placeholder slot 0
        let mut counter = 0usize;
        let mut index = self.trail.len();

        match conflict {
            Conflict::Long(cref) => {
                let c = cref as usize;
                for k in c + 1..c + 1 + self.arena[c] as usize {
                    self.analyze_lit(Lit(self.arena[k]), &mut counter, &mut learnt);
                }
            }
            Conflict::Binary(pair) => {
                for q in pair {
                    self.analyze_lit(q, &mut counter, &mut learnt);
                }
            }
        }
        let uip = loop {
            // Pick the next seen literal on the trail.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break pl;
            }
            // A current-level literal before the UIP was implied, so it
            // has a reason. Slot 0 of a reason is the implied literal
            // itself: read from slot 1.
            let reason = self.reason[pl.var().index()];
            debug_assert_ne!(reason, NO_REASON);
            if reason & BINARY != 0 {
                self.analyze_lit(Lit(reason & !BINARY), &mut counter, &mut learnt);
            } else {
                let c = reason as usize;
                debug_assert_eq!(self.arena[c + 1], pl.0);
                for k in c + 2..c + 1 + self.arena[c] as usize {
                    self.analyze_lit(Lit(self.arena[k]), &mut counter, &mut learnt);
                }
            }
        };
        learnt[0] = !uip;

        // Backjump level: second-highest level in the learnt clause.
        let backjump = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for k in 2..learnt.len() {
                if self.level[learnt[k].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = k;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        for &l in &learnt {
            self.seen[l.var().index()] = false;
        }
        self.scratch = learnt;
        backjump
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let lim = self.trail_lim[target as usize];
        for k in (lim..self.trail.len()).rev() {
            let l = self.trail[k];
            let v = l.var();
            self.phase[v.index()] = !l.is_neg();
            self.value[l.index()] = UNDEF;
            self.value[(!l).index()] = UNDEF;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(target as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop(&self.activity) {
            if self.value[Lit::pos(v).index()] == UNDEF {
                return Some(Lit::new(v, !self.phase[v.index()]));
            }
        }
        None
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumptions. The solver remains usable
    /// afterwards: more clauses and queries may follow (incremental use).
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        let mut conflicts_until_restart = luby(self.stats.restarts + 1) * LUBY_UNIT;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.cancel_until(0);
                    return SatResult::Unsat;
                }
                if (self.decision_level() as usize) <= assumptions.len() {
                    // Conflict inside the assumption prefix: unsat under
                    // these assumptions (the formula itself may be sat).
                    self.cancel_until(0);
                    return SatResult::Unsat;
                }
                let backjump = self.analyze(conflict);
                self.cancel_until(backjump);
                // Backjumping may remove assumption decisions; the decide
                // branch below re-applies them (levels stay aligned
                // because lower assumption levels survive the backjump).
                let learnt = std::mem::take(&mut self.scratch);
                if let [unit] = learnt[..] {
                    // Learnt clauses are consequences of the formula alone
                    // (assumptions surface as literals, not resolutions),
                    // so a unit learnt clause is a global fact.
                    debug_assert_eq!(backjump, 0);
                    match self.value[unit.index()] {
                        FALSE => self.ok = false,
                        TRUE => {}
                        _ => self.enqueue(unit, NO_REASON),
                    }
                } else {
                    self.stats.learnt_clauses += 1;
                    let reason = self.attach(&learnt);
                    self.enqueue(learnt[0], reason);
                }
                self.scratch = learnt;
                if !self.ok {
                    return SatResult::Unsat;
                }
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                self.var_inc /= VAR_DECAY;
            } else {
                if conflicts_until_restart == 0 {
                    self.stats.restarts += 1;
                    conflicts_until_restart = luby(self.stats.restarts + 1) * LUBY_UNIT;
                    self.cancel_until((assumptions.len() as u32).min(self.decision_level()));
                }
                let dl = self.decision_level() as usize;
                let next = if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.value[a.index()] {
                        TRUE => {
                            // Already implied: open an empty level so the
                            // assumption indexing stays aligned.
                            self.trail_lim.push(self.trail.len());
                            continue;
                        }
                        FALSE => {
                            self.cancel_until(0);
                            return SatResult::Unsat;
                        }
                        _ => Some(a),
                    }
                } else {
                    self.stats.decisions += 1;
                    self.pick_branch()
                };
                match next {
                    None => {
                        // Fully assigned: record the model.
                        self.model.clone_from(&self.value);
                        self.cancel_until(0);
                        return SatResult::Sat;
                    }
                    Some(l) => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(l, NO_REASON);
                    }
                }
            }
        }
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …).
fn luby(mut i: u64) -> u64 {
    // Find the finite subsequence containing i.
    let mut k = 1u32;
    while (1u64 << k) - 1 < i {
        k += 1;
    }
    while (1u64 << (k - 1)) - 1 != i && i != (1u64 << k) - 1 {
        i -= (1u64 << (k - 1)) - 1;
        k = 1;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
    }
    1u64 << (k - 1)
}

/// Max-heap over variables keyed by activity, with index positions for
/// in-place bumping (MiniSat's order heap).
#[derive(Debug, Clone, Default)]
struct OrderHeap {
    heap: Vec<Var>,
    pos: Vec<i32>,
}

impl OrderHeap {
    fn ensure(&mut self, v: Var) {
        if self.pos.len() <= v.index() {
            self.pos.resize(v.index() + 1, -1);
        }
    }

    fn insert(&mut self, v: Var, act: &[f64]) {
        self.ensure(v);
        if self.pos[v.index()] >= 0 {
            return;
        }
        self.pos[v.index()] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        let last = self.heap.pop()?;
        let top = match self.heap.first_mut() {
            Some(root) => std::mem::replace(root, last),
            None => last,
        };
        self.pos[top.index()] = -1;
        if !self.heap.is_empty() {
            self.pos[last.index()] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn bumped(&mut self, v: Var, act: &[f64]) {
        self.ensure(v);
        let p = self.pos[v.index()];
        if p >= 0 {
            self.sift_up(p as usize, act);
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i].index()] <= act[self.heap[parent].index()] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l].index()] > act[self.heap[best].index()] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r].index()] > act[self.heap[best].index()] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].index()] = a as i32;
        self.pos[self.heap[b].index()] = b as i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &mut Solver, i: usize, neg: bool) -> Lit {
        while s.num_vars() <= i {
            s.new_var();
        }
        Lit::new(Var::from_index(i), neg)
    }

    #[test]
    fn trivial_sat_and_model() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, false);
        let b = lit(&mut s, 1, false);
        s.add_clause(&[a, b]);
        s.add_clause(&[!a]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a.var()), Some(false));
        assert_eq!(s.value(b.var()), Some(true));
    }

    #[test]
    fn sat_models_are_total() {
        // DIP extraction in the SAT attack widens model values straight
        // into oracle stimulus, so a Sat answer must assign *every*
        // variable — even ones that appear in no clause.
        let mut s = Solver::new();
        let a = lit(&mut s, 0, false);
        let b = lit(&mut s, 1, false);
        let _unconstrained = lit(&mut s, 2, false);
        s.add_clause(&[a, b]);
        assert_eq!(s.solve(), SatResult::Sat);
        for i in 0..s.num_vars() {
            assert!(
                s.value(Var::from_index(i)).is_some(),
                "variable {i} left unassigned in a Sat model"
            );
        }
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, false);
        s.add_clause(&[a]);
        assert!(!s.add_clause(&[!a]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn a_default_solver_is_a_live_solver() {
        let mut s = Solver::default();
        assert_eq!(s.solve(), SatResult::Sat);
        let a = lit(&mut s, 0, false);
        assert!(s.add_clause(&[a]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a.var()), Some(true));
    }

    #[test]
    fn xor_chain_requires_search() {
        // x1 ^ x2 ^ ... ^ x10 = 1 encoded clause-wise pairwise with
        // auxiliary variables; satisfiable.
        let mut s = Solver::new();
        let xs: Vec<Lit> = (0..10).map(|i| lit(&mut s, i, false)).collect();
        let mut acc = xs[0];
        for (k, &x) in xs.iter().enumerate().skip(1) {
            let o = lit(&mut s, 10 + k, false);
            // o = acc XOR x
            s.add_clause(&[!acc, !x, !o]);
            s.add_clause(&[acc, x, !o]);
            s.add_clause(&[acc, !x, o]);
            s.add_clause(&[!acc, x, o]);
            acc = o;
        }
        s.add_clause(&[acc]);
        assert_eq!(s.solve(), SatResult::Sat);
        // Verify the model satisfies the parity constraint.
        let parity = xs
            .iter()
            .map(|l| s.value(l.var()).unwrap())
            .fold(false, |a, b| a ^ b);
        assert!(parity);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i in hole j; 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let p = |s: &mut Solver, i: usize, j: usize| lit(s, i * 2 + j, false);
        for i in 0..3 {
            let a = p(&mut s, i, 0);
            let b = p(&mut s, i, 1);
            s.add_clause(&[a, b]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    let a = p(&mut s, i1, j);
                    let b = p(&mut s, i2, j);
                    s.add_clause(&[!a, !b]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn assumptions_are_temporary() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, false);
        let b = lit(&mut s, 1, false);
        s.add_clause(&[a, b]);
        assert_eq!(s.solve_with(&[!a, !b]), SatResult::Unsat);
        // The formula itself is still satisfiable afterwards.
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.solve_with(&[!a]), SatResult::Sat);
        assert_eq!(s.value(b.var()), Some(true));
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, false);
        let b = lit(&mut s, 1, false);
        s.add_clause(&[a, b]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.add_clause(&[!a]);
        assert_eq!(s.solve(), SatResult::Sat);
        s.add_clause(&[!b]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, false);
        let b = lit(&mut s, 1, false);
        assert!(s.add_clause(&[a, a, b])); // deduped
        assert!(s.add_clause(&[a, !a])); // tautology: dropped
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64 + 1), e, "luby({})", i + 1);
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let a = lit(&mut s, 0, false);
        let b = lit(&mut s, 1, false);
        s.add_clause(&[a, b]);
        s.solve();
        assert!(s.stats().propagations > 0 || s.stats().decisions > 0);
    }

    #[test]
    fn random_3sat_models_verify() {
        // Deterministic pseudo-random 3-SAT near ratio 3.5 (satisfiable
        // with high probability); verify returned models against the
        // clauses by direct evaluation.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..5 {
            let nvars = 30;
            let nclauses = 105;
            let mut s = Solver::new();
            for _ in 0..nvars {
                s.new_var();
            }
            let mut cls: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..nclauses {
                let mut c = Vec::new();
                while c.len() < 3 {
                    let v = Var::from_index((next() % nvars as u64) as usize);
                    let l = Lit::new(v, next() % 2 == 0);
                    if !c.contains(&l) && !c.contains(&!l) {
                        c.push(l);
                    }
                }
                s.add_clause(&c);
                cls.push(c);
            }
            if s.solve() == SatResult::Sat {
                for c in &cls {
                    assert!(
                        c.iter().any(|l| s.value(l.var()) == Some(!l.is_neg())),
                        "round {round}: model violates clause"
                    );
                }
            }
        }
    }
}
