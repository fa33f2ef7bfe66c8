//! Translation of a mini-C function into a guarded transition system —
//! the counterpart of the paper's C-to-SAL converter.
//!
//! The unoptimised encoding is deliberately naive, mirroring the paper's
//! "direct conversion without any semantic knowledge":
//!
//! * every variable occupies its full storage width (booleans occupy a whole
//!   byte, `int`s sixteen bits);
//! * every C statement becomes its own transition;
//! * locals without an initialiser are *free* in the initial state, so the
//!   checker has to consider every value they might hold.
//!
//! The switches in [`EncodeOptions`] enable the two optimisations that live
//! naturally in the encoder (variable range analysis and statement
//! concatenation); the remaining optimisations are source-to-source passes in
//! [`crate::opt`].
//!
//! Statement concatenation is one forward pass over the transitions with
//! in/out-degree arrays indexed by location: O(T + L + F·E) for T
//! transitions, L locations and F fusions of effects of size E, where
//! restarting the scan after every fusion cost O(F·T²).  Range analysis
//! collects the constant-assignment spans of all variables in one walk of
//! the body.

use crate::model::{LocId, Model, StateVar, Transition, VarRole};
use std::collections::HashMap;
use tmg_minic::ast::{BinOp, Block, Expr, Function, Stmt, UnOp, VarDecl};
use tmg_minic::interp::BranchChoice;
use tmg_minic::types::Ty;

/// Options controlling the encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EncodeOptions {
    /// Variable range analysis (Section 3.2.4): narrow each variable's domain
    /// using its declared type, `__range` annotations and constant-assignment
    /// analysis instead of the full storage width.
    pub range_analysis: bool,
    /// Statement concatenation (Section 3.2.3): fuse consecutive independent
    /// assignment transitions into a single transition.
    pub concat_statements: bool,
}

impl EncodeOptions {
    /// The naive encoding with no optimisation (the paper's "unoptimized").
    pub fn naive() -> EncodeOptions {
        EncodeOptions::default()
    }

    /// Both encoder-level optimisations enabled.
    pub fn optimised() -> EncodeOptions {
        EncodeOptions {
            range_analysis: true,
            concat_statements: true,
        }
    }
}

/// Encodes `function` into a [`Model`].
///
/// # Example
///
/// ```
/// use tmg_minic::parse_function;
/// use tmg_tsys::{encode_function, EncodeOptions};
///
/// let f = parse_function("void f(bool a) { int x; x = 1; if (a) { x = 2; } }")?;
/// let naive = encode_function(&f, &EncodeOptions::naive());
/// let tight = encode_function(&f, &EncodeOptions { range_analysis: true, ..EncodeOptions::naive() });
/// assert!(tight.state_bits() < naive.state_bits());
/// # Ok::<(), tmg_minic::Error>(())
/// ```
pub fn encode_function(function: &Function, options: &EncodeOptions) -> Model {
    let const_spans = if options.range_analysis {
        constant_assignment_spans(function)
    } else {
        HashMap::new()
    };
    let mut enc = Encoder {
        function,
        options: *options,
        const_spans,
        transitions: Vec::new(),
        next_loc: 0,
    };
    enc.encode()
}

struct Encoder<'f> {
    function: &'f Function,
    options: EncodeOptions,
    /// Constant-assignment spans for range analysis (empty without it).
    const_spans: HashMap<&'f str, Option<(i64, i64)>>,
    transitions: Vec<Transition>,
    next_loc: u32,
}

impl<'f> Encoder<'f> {
    fn new_loc(&mut self) -> LocId {
        let id = LocId(self.next_loc);
        self.next_loc += 1;
        id
    }

    fn encode(&mut self) -> Model {
        let initial = self.new_loc();
        let final_loc = self.new_loc();

        let mut vars = Vec::new();
        for param in &self.function.params {
            vars.push(self.encode_var(param, VarRole::Input));
        }
        for local in &self.function.locals {
            vars.push(self.encode_var(local, VarRole::Local));
        }

        // Non-constant initialisers become ordinary assignments executed
        // before the body.
        let mut cur = initial;
        for local in &self.function.locals {
            if let Some(init) = &local.init {
                if !matches!(init, Expr::Int(_)) {
                    let next = self.new_loc();
                    self.transitions.push(Transition {
                        from: cur,
                        guard: None,
                        effect: vec![(local.name.clone(), init.clone())],
                        to: next,
                        decision: None,
                    });
                    cur = next;
                }
            }
        }

        if let Some(open) = self.encode_block(&self.function.body, cur, final_loc) {
            self.transitions.push(Transition {
                from: open,
                guard: None,
                effect: Vec::new(),
                to: final_loc,
                decision: None,
            });
        }

        let mut model = Model {
            name: self.function.name.clone(),
            vars,
            locations: self.next_loc,
            initial,
            final_loc,
            transitions: std::mem::take(&mut self.transitions),
        };
        if self.options.concat_statements {
            concatenate_statements(&mut model);
        }
        compact_locations(&mut model);
        debug_assert!(model.validate().is_ok());
        model
    }

    fn encode_var(&self, decl: &VarDecl, role: VarRole) -> StateVar {
        let domain = if self.options.range_analysis {
            analysed_domain(decl, &self.const_spans)
        } else {
            storage_domain(decl.ty)
        };
        let init = match (&decl.init, role) {
            (Some(Expr::Int(v)), VarRole::Local) => Some(decl.ty.wrap(*v)),
            _ => None,
        };
        StateVar {
            name: decl.name.clone(),
            ty: decl.ty,
            domain,
            init,
            role,
        }
    }

    /// Encodes the statements of `block`, starting at location `entry`.
    /// Returns the open location where control continues, or `None` if every
    /// path reached `final_loc` via a `return`.
    fn encode_block(&mut self, block: &Block, entry: LocId, final_loc: LocId) -> Option<LocId> {
        let mut cur = entry;
        for stmt in &block.stmts {
            match stmt {
                Stmt::Assign { target, value, .. } => {
                    let next = self.new_loc();
                    self.transitions.push(Transition {
                        from: cur,
                        guard: None,
                        effect: vec![(target.clone(), value.clone())],
                        to: next,
                        decision: None,
                    });
                    cur = next;
                }
                Stmt::Call { .. } => {
                    // External calls have no effect on the state relevant to
                    // control flow; they are a skip transition (one C
                    // statement = one transition in the naive encoding).
                    let next = self.new_loc();
                    self.transitions.push(Transition {
                        from: cur,
                        guard: None,
                        effect: Vec::new(),
                        to: next,
                        decision: None,
                    });
                    cur = next;
                }
                Stmt::Return { .. } => {
                    self.transitions.push(Transition {
                        from: cur,
                        guard: None,
                        effect: Vec::new(),
                        to: final_loc,
                        decision: None,
                    });
                    return None;
                }
                Stmt::If {
                    id,
                    cond,
                    then_branch,
                    else_branch,
                    ..
                } => {
                    let join = self.new_loc();
                    let then_entry = self.new_loc();
                    self.transitions.push(Transition {
                        from: cur,
                        guard: Some(cond.clone()),
                        effect: Vec::new(),
                        to: then_entry,
                        decision: Some((*id, BranchChoice::Then)),
                    });
                    if let Some(open) = self.encode_block(then_branch, then_entry, final_loc) {
                        self.jump(open, join);
                    }
                    let else_target = match else_branch {
                        Some(else_block) => {
                            let else_entry = self.new_loc();
                            if let Some(open) = self.encode_block(else_block, else_entry, final_loc)
                            {
                                self.jump(open, join);
                            }
                            else_entry
                        }
                        None => join,
                    };
                    self.transitions.push(Transition {
                        from: cur,
                        guard: Some(negate(cond)),
                        effect: Vec::new(),
                        to: else_target,
                        decision: Some((*id, BranchChoice::Else)),
                    });
                    cur = join;
                }
                Stmt::Switch {
                    id,
                    selector,
                    cases,
                    default,
                    ..
                } => {
                    let join = self.new_loc();
                    let mut default_guard: Option<Expr> = None;
                    for case in cases {
                        let arm_entry = self.new_loc();
                        let eq = Expr::binary(BinOp::Eq, selector.clone(), Expr::int(case.value));
                        self.transitions.push(Transition {
                            from: cur,
                            guard: Some(eq),
                            effect: Vec::new(),
                            to: arm_entry,
                            decision: Some((*id, BranchChoice::Case(case.value))),
                        });
                        if let Some(open) = self.encode_block(&case.body, arm_entry, final_loc) {
                            self.jump(open, join);
                        }
                        let ne = Expr::binary(BinOp::Ne, selector.clone(), Expr::int(case.value));
                        default_guard = Some(match default_guard {
                            None => ne,
                            Some(acc) => Expr::binary(BinOp::And, acc, ne),
                        });
                    }
                    let default_target = match default {
                        Some(body) => {
                            let arm_entry = self.new_loc();
                            if let Some(open) = self.encode_block(body, arm_entry, final_loc) {
                                self.jump(open, join);
                            }
                            arm_entry
                        }
                        None => join,
                    };
                    self.transitions.push(Transition {
                        from: cur,
                        guard: default_guard,
                        effect: Vec::new(),
                        to: default_target,
                        decision: Some((*id, BranchChoice::Default)),
                    });
                    cur = join;
                }
                Stmt::While { id, cond, body, .. } => {
                    let header = self.new_loc();
                    self.jump(cur, header);
                    let body_entry = self.new_loc();
                    let after = self.new_loc();
                    self.transitions.push(Transition {
                        from: header,
                        guard: Some(cond.clone()),
                        effect: Vec::new(),
                        to: body_entry,
                        decision: Some((*id, BranchChoice::LoopIterate)),
                    });
                    self.transitions.push(Transition {
                        from: header,
                        guard: Some(negate(cond)),
                        effect: Vec::new(),
                        to: after,
                        decision: Some((*id, BranchChoice::LoopExit)),
                    });
                    if let Some(open) = self.encode_block(body, body_entry, final_loc) {
                        self.jump(open, header);
                    }
                    cur = after;
                }
            }
        }
        Some(cur)
    }

    fn jump(&mut self, from: LocId, to: LocId) {
        self.transitions.push(Transition {
            from,
            guard: None,
            effect: Vec::new(),
            to,
            decision: None,
        });
    }
}

fn negate(e: &Expr) -> Expr {
    Expr::unary(UnOp::Not, e.clone())
}

/// Full storage-width domain of a type — what the naive conversion uses
/// ("in C, boolean values are mostly encoded as integers").
fn storage_domain(ty: Ty) -> (i64, i64) {
    match ty {
        Ty::Bool | Ty::U8 => (0, 255),
        Ty::I8 => (-128, 127),
        Ty::I16 => (-32768, 32767),
        Ty::U16 => (0, 65535),
        Ty::I32 => (i64::from(i32::MIN), i64::from(i32::MAX)),
    }
}

/// Range analysis (Section 3.2.4): declared type, `__range` annotations from
/// the code generator, boolean narrowing, and constant-assignment analysis
/// over the spans of [`constant_assignment_spans`].
fn analysed_domain(decl: &VarDecl, const_spans: &HashMap<&str, Option<(i64, i64)>>) -> (i64, i64) {
    if let Some(r) = decl.range {
        return r;
    }
    if decl.ty == Ty::Bool {
        return (0, 1);
    }
    // Constant-assignment analysis: if the variable is initialised with a
    // constant and every assignment to it is a constant, its domain is the
    // span of those constants.
    if let Some(Expr::Int(init)) = decl.init {
        let span = match const_spans.get(decl.name.as_str()) {
            None => Some((init, init)),
            Some(assigned) => assigned.map(|(lo, hi)| (init.min(lo), init.max(hi))),
        };
        if let Some((lo, hi)) = span {
            return (
                decl.ty.wrap(lo).min(decl.ty.wrap(hi)),
                decl.ty.wrap(hi).max(decl.ty.wrap(lo)),
            );
        }
    }
    decl.ty.value_range()
}

/// The span of the constants assigned to each assigned variable, from one
/// walk of the body; `None` for a variable that is assigned a non-constant
/// value anywhere.
fn constant_assignment_spans(function: &Function) -> HashMap<&str, Option<(i64, i64)>> {
    let mut spans: HashMap<&str, Option<(i64, i64)>> = HashMap::new();
    function.for_each_stmt(&mut |s| {
        if let Stmt::Assign { target, value, .. } = s {
            let span = spans
                .entry(target.as_str())
                .or_insert(Some((i64::MAX, i64::MIN)));
            *span = match (value, *span) {
                (Expr::Int(v), Some((lo, hi))) => Some((lo.min(*v), hi.max(*v))),
                _ => None,
            };
        }
    });
    spans
}

/// Statement concatenation (Section 3.2.3): fuse `A --e1--> B --e2--> C`
/// into `A --e1∪e2--> C` when both transitions are plain assignments, `B`
/// has no other uses, and the statements are independent (the first writes
/// nothing the second reads or writes).
///
/// One forward pass performs exactly the fusions of rescanning from the
/// first transition after every fusion.  Fusing at `i` removes `B` and
/// leaves every other location's degrees unchanged; the only successor
/// whose effect changes is `t_i`, and its effect only grows, so the
/// independence check can only get stricter and no transition already
/// passed can become eligible.  `t_i` itself is re-checked against its new
/// successor until it is no longer eligible.
fn concatenate_statements(model: &mut Model) {
    let locations = model.locations as usize;
    let mut incoming = vec![0u32; locations];
    let mut outgoing = vec![0u32; locations];
    // An outgoing transition of each location: the only one while the
    // location's out-degree is 1 (fusions change no other location's
    // outgoing set).
    let mut successor = vec![usize::MAX; locations];
    for (k, t) in model.transitions.iter().enumerate() {
        incoming[t.to.index()] += 1;
        outgoing[t.from.index()] += 1;
        successor[t.from.index()] = k;
    }
    let mut removed = vec![false; model.transitions.len()];
    let mut i = 0;
    while i < model.transitions.len() {
        let t1 = &model.transitions[i];
        let mid = t1.to;
        if removed[i]
            || t1.guard.is_some()
            || t1.decision.is_some()
            || mid == model.final_loc
            || mid == model.initial
            || incoming[mid.index()] != 1
            || outgoing[mid.index()] != 1
        {
            i += 1;
            continue;
        }
        let j = successor[mid.index()];
        let t2 = &model.transitions[j];
        if t2.guard.is_some() || t2.decision.is_some() {
            i += 1;
            continue;
        }
        // Independence: writes of t1 must not feed reads or writes of t2.
        let (reads, writes) = (t2.read_vars(), t2.written_vars());
        if t1
            .effect
            .iter()
            .any(|(w, _)| reads.contains(&w.as_str()) || writes.contains(&w.as_str()))
        {
            i += 1;
            continue;
        }
        // Fuse.  `B` is left without transitions and unreachable, so its
        // degrees are never read again.  An unguarded, effect-free self-loop
        // on an otherwise unreachable `B` (`j == i`) fuses with itself into
        // nothing.
        removed[j] = true;
        if j != i {
            let effect = std::mem::take(&mut model.transitions[j].effect);
            let to = model.transitions[j].to;
            let t1 = &mut model.transitions[i];
            t1.effect.extend(effect);
            t1.to = to;
        }
    }
    let mut k = 0;
    model.transitions.retain(|_| {
        k += 1;
        !removed[k - 1]
    });
}

/// The restart-from-scratch statement concatenation that
/// [`concatenate_statements`] replaces, kept as the tests' oracle.
#[cfg(test)]
fn concatenate_statements_reference(model: &mut Model) {
    loop {
        let mut fused = false;
        'outer: for i in 0..model.transitions.len() {
            let t1 = &model.transitions[i];
            if t1.guard.is_some() || t1.decision.is_some() || t1.to == model.final_loc {
                continue;
            }
            let mid = t1.to;
            if mid == model.initial {
                continue;
            }
            let incoming = model.transitions.iter().filter(|t| t.to == mid).count();
            let outgoing: Vec<usize> = model
                .transitions
                .iter()
                .enumerate()
                .filter(|(_, t)| t.from == mid)
                .map(|(j, _)| j)
                .collect();
            if incoming != 1 || outgoing.len() != 1 {
                continue;
            }
            let j = outgoing[0];
            let t2 = &model.transitions[j];
            if t2.guard.is_some() || t2.decision.is_some() {
                continue;
            }
            // Independence: writes of t1 must not feed reads or writes of t2.
            let w1: Vec<String> = t1.written_vars().iter().map(|s| s.to_string()).collect();
            for w in &w1 {
                if t2.read_vars().contains(&w.as_str()) || t2.written_vars().contains(&w.as_str()) {
                    continue 'outer;
                }
            }
            // Fuse.
            let mut effect = model.transitions[i].effect.clone();
            effect.extend(model.transitions[j].effect.clone());
            let to = model.transitions[j].to;
            model.transitions[i].effect = effect;
            model.transitions[i].to = to;
            model.transitions.remove(j);
            fused = true;
            break;
        }
        if !fused {
            return;
        }
    }
}

/// The per-variable walk that [`constant_assignment_spans`] replaces, kept
/// as the tests' oracle.
#[cfg(test)]
fn analysed_domain_reference(function: &Function, decl: &VarDecl) -> (i64, i64) {
    if let Some(r) = decl.range {
        return r;
    }
    if decl.ty == Ty::Bool {
        return (0, 1);
    }
    if let Some(Expr::Int(init)) = decl.init {
        let mut lo = init;
        let mut hi = init;
        let mut all_const = true;
        function.for_each_stmt(&mut |s| {
            if let Stmt::Assign { target, value, .. } = s {
                if target == &decl.name {
                    match value {
                        Expr::Int(v) => {
                            lo = lo.min(*v);
                            hi = hi.max(*v);
                        }
                        _ => all_const = false,
                    }
                }
            }
        });
        if all_const {
            return (
                decl.ty.wrap(lo).min(decl.ty.wrap(hi)),
                decl.ty.wrap(hi).max(decl.ty.wrap(lo)),
            );
        }
    }
    decl.ty.value_range()
}

/// Renumbers locations densely after passes removed some, keeping the
/// program-counter bit count honest.
fn compact_locations(model: &mut Model) {
    let mut map: HashMap<LocId, LocId> = HashMap::new();
    let mut fresh = 0u32;
    let assign = |loc: LocId, map: &mut HashMap<LocId, LocId>, fresh: &mut u32| -> LocId {
        *map.entry(loc).or_insert_with(|| {
            let id = LocId(*fresh);
            *fresh += 1;
            id
        })
    };
    let initial = assign(model.initial, &mut map, &mut fresh);
    let final_loc = assign(model.final_loc, &mut map, &mut fresh);
    for t in &mut model.transitions {
        t.from = assign(t.from, &mut map, &mut fresh);
        t.to = assign(t.to, &mut map, &mut fresh);
    }
    model.initial = initial;
    model.final_loc = final_loc;
    model.locations = fresh;
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmg_minic::parse_function;

    fn encode(src: &str, options: &EncodeOptions) -> Model {
        encode_function(&parse_function(src).expect("parse"), options)
    }

    #[test]
    fn naive_encoding_uses_storage_widths() {
        let m = encode("void f(bool a, char b, int c) { }", &EncodeOptions::naive());
        assert_eq!(m.var("a").map(StateVar::bits), Some(8));
        assert_eq!(m.var("b").map(StateVar::bits), Some(8));
        assert_eq!(m.var("c").map(StateVar::bits), Some(16));
    }

    #[test]
    fn range_analysis_narrows_domains() {
        let src = "void f(bool a, char s __range(0, 8)) { char st = 0; if (a) { st = 3; } else { st = 1; } }";
        let naive = encode(src, &EncodeOptions::naive());
        let tight = encode(
            src,
            &EncodeOptions {
                range_analysis: true,
                concat_statements: false,
            },
        );
        assert_eq!(tight.var("a").map(StateVar::bits), Some(1));
        assert_eq!(tight.var("s").map(StateVar::bits), Some(4));
        // Constant-assignment analysis narrows st to 0..=3.
        assert_eq!(tight.var("st").map(StateVar::bits), Some(2));
        assert!(tight.state_bits() < naive.state_bits());
    }

    #[test]
    fn one_transition_per_statement_in_naive_mode() {
        let m = encode(
            "void f(int a) { a = 1; a = 2; a = 3; }",
            &EncodeOptions::naive(),
        );
        // 3 assignments + the fall-off-the-end transition.
        assert_eq!(m.transitions.len(), 4);
    }

    #[test]
    fn statement_concatenation_fuses_independent_assignments() {
        let src = "void f(int a, int b, int c) { a = 1; b = 2; c = 3; }";
        let naive = encode(src, &EncodeOptions::naive());
        let fused = encode(
            src,
            &EncodeOptions {
                range_analysis: false,
                concat_statements: true,
            },
        );
        assert!(fused.transitions.len() < naive.transitions.len());
        // All three assignments are independent, so they can fuse into one.
        let max_effect = fused
            .transitions
            .iter()
            .map(|t| t.effect.len())
            .max()
            .unwrap_or(0);
        assert_eq!(max_effect, 3);
    }

    #[test]
    fn dependent_assignments_do_not_fuse() {
        let src = "void f(int a, int b) { a = 1; b = a + 1; }";
        let fused = encode(
            src,
            &EncodeOptions {
                range_analysis: false,
                concat_statements: true,
            },
        );
        // `b = a + 1` reads what the first statement writes: must stay split.
        assert!(fused.transitions.iter().all(|t| t.effect.len() <= 1));
    }

    /// Encoded-corpus functions: generated automotive code (the benchmark's
    /// small-domain shape and the small test shape), `module_gen` bodies,
    /// the wiper controller, the Table-2 module and Figure 1.
    fn corpus() -> Vec<Function> {
        use tmg_codegen::{
            figure1_function, generate_automotive, generate_module, table2_function,
            wiper_function, AutomotiveConfig, ModuleGenConfig,
        };
        let mut corpus: Vec<Function> = (1..=16)
            .map(|seed| {
                generate_automotive(&AutomotiveConfig {
                    seed,
                    target_blocks: 40,
                    switch_arms: 3,
                    max_if_depth: 2,
                    sensor_inputs: 1,
                    mode_inputs: 1,
                })
                .function
            })
            .collect();
        corpus.extend(
            (1..=4).map(|seed| generate_automotive(&AutomotiveConfig::small(seed)).function),
        );
        corpus.extend(generate_module(&ModuleGenConfig::bench()).program.functions);
        corpus.extend([
            wiper_function(),
            table2_function(),
            figure1_function(true),
            figure1_function(false),
            // Write-after-write and read-after-write chains must stay split.
            parse_function(
                "void chains(int a, int b, int c) { a = 1; a = 2; b = a; c = 3; b = 4; }",
            )
            .expect("parse"),
        ]);
        corpus
    }

    /// The corpus optimised under `opts`, with the encoder options they imply.
    fn corpus_models(opts: &crate::opt::Optimisations) -> Vec<(Function, EncodeOptions)> {
        corpus()
            .iter()
            .map(|f| {
                (
                    crate::opt::apply_optimisations(f, opts).0,
                    opts.encode_options(),
                )
            })
            .collect()
    }

    #[test]
    fn single_pass_concatenation_matches_the_restarting_reference() {
        let concat_only = crate::opt::Optimisations {
            statement_concatenation: true,
            ..crate::opt::Optimisations::none()
        };
        let mut fusions = 0;
        for opts in [crate::opt::Optimisations::all(), concat_only] {
            for (f, options) in corpus_models(&opts) {
                let base = encode_function(
                    &f,
                    &EncodeOptions {
                        concat_statements: false,
                        ..options
                    },
                );
                let mut fast = base.clone();
                concatenate_statements(&mut fast);
                compact_locations(&mut fast);
                let mut reference = base.clone();
                concatenate_statements_reference(&mut reference);
                compact_locations(&mut reference);
                assert_eq!(fast, reference, "concatenation diverges on {}", f.name);
                assert_eq!(encode_function(&f, &options), fast, "{}", f.name);
                fusions += base.transitions.len() - fast.transitions.len();
            }
        }
        assert!(fusions > 0, "the corpus must exercise fusions");
    }

    #[test]
    fn an_unguarded_effect_free_self_loop_fuses_away_like_the_reference() {
        // l2 is reachable only from itself: its unguarded, effect-free
        // self-loop passes every fusion condition with `j == i`.
        let skip = |from: u32, to: u32| Transition {
            from: LocId(from),
            guard: None,
            effect: Vec::new(),
            to: LocId(to),
            decision: None,
        };
        let model = Model {
            name: "self_loop".into(),
            vars: Vec::new(),
            locations: 4,
            initial: LocId(0),
            final_loc: LocId(1),
            transitions: vec![skip(0, 3), skip(2, 2), skip(3, 1)],
        };
        let mut fast = model.clone();
        concatenate_statements(&mut fast);
        let mut reference = model;
        concatenate_statements_reference(&mut reference);
        assert_eq!(fast, reference);
        assert_eq!(fast.transitions, vec![skip(0, 1)]);
    }

    #[test]
    fn one_walk_domains_match_the_per_variable_walk() {
        for (f, _) in corpus_models(&crate::opt::Optimisations::all())
            .into_iter()
            .chain(corpus().into_iter().map(|f| (f, EncodeOptions::naive())))
        {
            let spans = constant_assignment_spans(&f);
            for decl in f.params.iter().chain(&f.locals) {
                assert_eq!(
                    analysed_domain(decl, &spans),
                    analysed_domain_reference(&f, decl),
                    "{}::{}",
                    f.name,
                    decl.name
                );
            }
        }
    }

    #[test]
    fn branches_carry_decisions() {
        let m = encode(
            "void f(int a) { if (a > 0) { g(); } else { h(); } }",
            &EncodeOptions::naive(),
        );
        let decisions: Vec<_> = m.transitions.iter().filter_map(|t| t.decision).collect();
        assert!(decisions.iter().any(|(_, c)| *c == BranchChoice::Then));
        assert!(decisions.iter().any(|(_, c)| *c == BranchChoice::Else));
    }

    #[test]
    fn switch_default_guard_excludes_all_cases() {
        let m = encode(
            "void f(int s) { switch (s) { case 1: a(); break; case 2: b(); break; } }",
            &EncodeOptions::naive(),
        );
        let default_t = m
            .transitions
            .iter()
            .find(|t| matches!(t.decision, Some((_, BranchChoice::Default))))
            .expect("default transition");
        let guard = default_t.guard.as_ref().expect("guard");
        assert_eq!(guard.referenced_vars().len(), 2);
    }

    #[test]
    fn uninitialised_locals_are_free_and_initialised_ones_are_not() {
        let m = encode(
            "void f(int a) { int u; int v = 4; u = 1; }",
            &EncodeOptions::naive(),
        );
        assert!(m.var("u").expect("u").is_free());
        assert_eq!(m.var("v").expect("v").init, Some(4));
        // The input is always free.
        assert!(m.var("a").expect("a").is_free());
    }

    #[test]
    fn loops_produce_iterate_and_exit_decisions() {
        let m = encode(
            "void f(int n) { int i; i = 0; while (i < n) __bound(4) { i = i + 1; } }",
            &EncodeOptions::naive(),
        );
        let decisions: Vec<_> = m.transitions.iter().filter_map(|t| t.decision).collect();
        assert!(decisions
            .iter()
            .any(|(_, c)| *c == BranchChoice::LoopIterate));
        assert!(decisions.iter().any(|(_, c)| *c == BranchChoice::LoopExit));
        m.validate().expect("valid");
    }

    #[test]
    fn locations_are_compact() {
        let m = encode(
            "void f(int a) { if (a) { a = 1; } a = 2; }",
            &EncodeOptions::optimised(),
        );
        for t in &m.transitions {
            assert!(t.from.0 < m.locations && t.to.0 < m.locations);
        }
    }
}
