//! The shared dataflow core of the interprocedural rules.
//!
//! Two pieces live here:
//!
//! * [`fixpoint`] — the one solver loop every dataflow rule (`pii-taint`,
//!   `determinism-flow`, `lock-order`) runs on. It re-analyzes every
//!   workspace function, feeding each the current callee summaries,
//!   until no summary changes (summaries only grow, except that a
//!   callee found to clear a mark in place can remove marks upstream;
//!   a round bound caps pathological call chains), then makes one
//!   reporting pass whose findings are filtered by `dox-lint:allow`
//!   suppressions.
//! * the mask walker behind `pii-taint` and `determinism-flow`. Every
//!   value is abstracted to a `u64` mask: bit `i` for "derived from
//!   parameter `i`" plus one [`MARK`] bit for "carries the rule's
//!   property" (PII content, hash-ordered iteration). A function's
//!   [`Summary`] records which bits its return value carries and which
//!   parameters reach a sink, so a flow that crosses crates is reported
//!   at the exact sink — or call — site. The walker never knows which
//!   rule it serves: sources, sanitizers and sinks come from a
//!   [`Policy`] consulted at fixed hook points.
//!
//! Functions whose bodies failed to parse are skipped, never guessed at.

use crate::callgraph::{FnId, Workspace};
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::parser::{Block, Expr, Stmt, Ty};
use crate::rules::{inline_format_args, Suppressions};
use crate::symbols::TypeEnv;
use std::collections::BTreeMap;

/// One function's findings in the reporting pass, `(line, col, message)`.
pub(crate) type Findings = Vec<(u32, u32, String)>;

/// Summary rounds before [`fixpoint`] stops iterating.
const MAX_ROUNDS: usize = 20;

/// Drive `analyze` to a fixpoint over every workspace function, then
/// report. `analyze(summaries, id, findings)` returns `id`'s summary
/// given everyone else's; `findings` is `Some` only in the final,
/// reporting pass.
pub(crate) fn fixpoint<S: Clone + Default + PartialEq>(
    ws: &Workspace,
    rule: &'static str,
    sup: &Suppressions<'_>,
    out: &mut Vec<Diagnostic>,
    mut analyze: impl FnMut(&[S], FnId, Option<&mut Findings>) -> S,
) {
    let mut summaries = vec![S::default(); ws.fns.len()];
    for _ in 0..MAX_ROUNDS {
        let mut changed = false;
        for id in 0..ws.fns.len() {
            let summary = analyze(&summaries, FnId(id), None);
            if summary != summaries[id] {
                summaries[id] = summary;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for id in 0..ws.fns.len() {
        let mut findings = Vec::new();
        analyze(&summaries, FnId(id), Some(&mut findings));
        let rel = &ws.file_of(FnId(id)).rel;
        for (line, col, message) in findings {
            if !sup.allowed(rel, line, rule) {
                out.push(Diagnostic::new(rel, line, col, rule, message));
            }
        }
    }
}

/// The body of a function worth analyzing: `None` for bodiless
/// declarations and for bodies the parser degraded on.
pub(crate) fn body_of(ws: &Workspace, id: FnId) -> Option<&Block> {
    let def = &ws.entry(id).info.def;
    def.body.as_ref().filter(|_| !def.degraded)
}

/// Record a finding once per `(line, col)` site; a no-op outside the
/// reporting pass.
pub(crate) fn note(findings: &mut Option<&mut Findings>, line: u32, col: u32, message: String) {
    if let Some(findings) = findings.as_deref_mut() {
        if !findings.iter().any(|(l, c, _)| *l == line && *c == col) {
            findings.push((line, col, message));
        }
    }
}

/// The last segment of a path callee, for messages.
pub(crate) fn callee_label(callee: &Expr) -> &str {
    match callee {
        Expr::Path { segs, .. } => segs.last().map_or("?", String::as_str),
        _ => "?",
    }
}

/// Whether a path ends in `module::name` for one of the `(module, name)`
/// pairs (`Response::ok`, `serde_json::to_string`).
pub(crate) fn path_ends_in(segs: &[String], pairs: &[(&str, &str)]) -> bool {
    match segs {
        [.., module, name] => pairs.contains(&(module.as_str(), name.as_str())),
        _ => false,
    }
}

/// Mask bit for "carries the rule's property"; bits `0..62` are the
/// function's parameters.
pub(crate) const MARK: u64 = 1 << 63;

/// Methods that push their arguments into the receiver: the receiver
/// variable absorbs the arguments' masks (`parts.push(doc.body.clone())`).
const RECV_MUT: [&str; 5] = ["push", "insert", "extend", "append", "push_str"];

/// Per-function summary of the mask walker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Summary {
    /// Mask of the return value: [`MARK`] and/or parameter bits.
    returns: u64,
    /// Bit `i` set: an argument passed as parameter `i` reaches a sink
    /// inside this function (or a callee).
    param_sink: u64,
    /// Bit `i` set: this function (or a callee) clears [`MARK`] on
    /// parameter `i` in place, e.g. sorts it. Through `&mut` the caller
    /// sees the change; a by-value argument is moved and never read
    /// again, so the caller's argument variable loses the mark either way.
    clears_param: u64,
}

/// How a rule treats a free or associated function call.
pub(crate) enum CallRole {
    /// Resolve through the call graph and apply callee summaries.
    Plain,
    /// The result carries nothing (`redact(…)`).
    Sanitizer,
    /// Every argument is consumed by a sink with this label.
    Sink(String),
}

/// A method call as the walker sees it, for [`Policy::method`].
pub(crate) struct MethodSite<'e> {
    /// The receiver expression.
    pub recv: &'e Expr,
    /// The receiver's type, when the model resolves it.
    pub recv_ty: Option<&'e Ty>,
    /// The method name.
    pub method: &'e str,
    /// Turbofish type arguments.
    pub turbofish: &'e [Ty],
    /// Masks of the receiver (first) and of every argument.
    pub masks: &'e [u64],
    /// Line of the method name.
    pub line: u32,
    /// Column of the method name.
    pub col: u32,
}

/// The rule-specific half of a mask-walker rule: what sets [`MARK`],
/// what clears it, and what consumes it.
pub(crate) trait Policy {
    /// Whether reading `field` sets [`MARK`]. `base_ty` is the base's
    /// type when it is a struct the workspace model knows.
    fn field_source(&self, _base_ty: Option<&Ty>, _field: &str) -> bool {
        false
    }

    /// Whether a `let` annotated with `ty` clears [`MARK`].
    fn clears_on_bind(&self, _ty: &Ty) -> bool {
        false
    }

    /// Whether a `for` loop over a value of type `ty` sets [`MARK`].
    fn iter_source(&self, _ty: &Ty) -> bool {
        false
    }

    /// The sink label of macro `name`, if it is a sink. `buffer`: a
    /// `write!`/`writeln!` into a local `String`/`Vec`.
    fn macro_sink(&self, _name: &str, _buffer: bool) -> Option<String> {
        None
    }

    /// How a call to the path `segs` is treated.
    fn call_role(&self, segs: &[String]) -> CallRole;

    /// The result mask of a method with rule-specific meaning, or `None`
    /// to fall through to receiver mutation and callee resolution.
    fn method(&self, w: &mut Walker<'_, '_>, site: &MethodSite<'_>) -> Option<u64>;

    /// The message for a marked `what` (`"argument"`, or an inline
    /// capture) reaching `sink`.
    fn sink_message(&self, what: &str, sink: &str) -> String;

    /// The message for a marked argument `i` of `label` reaching a sink
    /// inside `callee`.
    fn callee_message(&self, i: usize, label: &str, callee: &str) -> String;
}

/// Analyze one function with `policy` under the current `summaries`.
pub(crate) fn walk(
    ws: &Workspace,
    policy: &dyn Policy,
    summaries: &[Summary],
    id: FnId,
    findings: Option<&mut Findings>,
) -> Summary {
    let Some(body) = body_of(ws, id) else {
        return Summary::default();
    };
    let mut masks = BTreeMap::new();
    let mut params = BTreeMap::new();
    for (i, (name, _)) in ws.entry(id).info.def.params.iter().enumerate().take(62) {
        masks.insert(name.clone(), 1u64 << i);
        params.insert(name.clone(), i);
    }
    let mut w = Walker {
        ws,
        policy,
        summaries,
        id,
        env: ws.env_for(id),
        masks,
        params,
        summary: Summary::default(),
        findings,
    };
    let tail = w.walk_block(body);
    w.summary.returns |= tail;
    w.summary
}

/// The per-function state of the mask walker.
pub(crate) struct Walker<'a, 'f> {
    ws: &'a Workspace,
    policy: &'a dyn Policy,
    summaries: &'a [Summary],
    id: FnId,
    env: TypeEnv<'a>,
    masks: BTreeMap<String, u64>,
    /// Parameter names not yet shadowed or reassigned, with their index.
    params: BTreeMap<String, usize>,
    summary: Summary,
    findings: Option<&'f mut Findings>,
}

impl Walker<'_, '_> {
    /// Clear [`MARK`] on the local variable `expr` (through any `&mut`),
    /// if it is one; clearing a parameter is recorded in the summary.
    pub(crate) fn clear_mark(&mut self, expr: &Expr) {
        let Some(var) = local(peel_unary(expr)) else {
            return;
        };
        if let Some(mask) = self.masks.get_mut(var) {
            *mask &= !MARK;
        }
        if let Some(&i) = self.params.get(var) {
            self.summary.clears_param |= 1 << i;
        }
    }

    /// (Re)bind a local: it now holds `mask`, and if it named a parameter
    /// it no longer does.
    fn bind(&mut self, name: String, mask: u64) {
        self.params.remove(&name);
        self.masks.insert(name, mask);
    }

    /// Walk a block; returns the mask of its tail expression.
    fn walk_block(&mut self, block: &Block) -> u64 {
        let mut tail = 0;
        for stmt in &block.stmts {
            tail = 0;
            match stmt {
                Stmt::Let {
                    bound, ty, init, ..
                } => {
                    let mut mask = init.as_ref().map_or(0, |e| self.eval(e));
                    if ty.as_ref().is_some_and(|t| self.policy.clears_on_bind(t)) {
                        mask &= !MARK;
                    }
                    let inferred = ty
                        .clone()
                        .or_else(|| init.as_ref().and_then(|e| self.env.type_of(e)));
                    for name in bound {
                        self.bind(name.clone(), mask);
                        if let Some(t) = &inferred {
                            self.env.bind(name, t.clone());
                        }
                    }
                }
                Stmt::Semi(e) => {
                    self.eval(e);
                }
                Stmt::Expr(e) => tail = self.eval(e),
                Stmt::Item(_) => {}
            }
        }
        tail
    }

    /// Evaluate an expression to its mask, reporting sink hits.
    fn eval(&mut self, expr: &Expr) -> u64 {
        match expr {
            Expr::Lit { .. } | Expr::Opaque { .. } => 0,
            Expr::Path { .. } => local(expr).map_or(0, |v| self.mask_of(v)),
            Expr::Field { base, name, .. } => {
                // Typed matching only counts when the struct is in the
                // workspace model; an unknown (e.g. std) type gets the
                // untyped treatment.
                let base_ty = self
                    .env
                    .type_of(base)
                    .filter(|t| self.ws.table.contains_key(&t.peeled().name));
                let mut mask = self.eval(base);
                if self.policy.field_source(base_ty.as_ref(), name) {
                    mask |= MARK;
                }
                mask
            }
            Expr::Unary { inner } => self.eval(inner),
            Expr::Index { base, index } => self.eval(base) | self.eval(index),
            Expr::Group { parts } => parts.iter().fold(0, |a, p| a | self.eval(p)),
            Expr::Struct { fields, .. } => fields.iter().fold(0, |a, (_, v)| a | self.eval(v)),
            Expr::Block(b) => self.walk_block(b),
            Expr::Return { value } => {
                let mask = value.as_ref().map_or(0, |v| self.eval(v));
                self.summary.returns |= mask;
                0
            }
            Expr::Assign { target, value, .. } => {
                let mask = self.eval(value);
                match local(target) {
                    Some(var) => {
                        self.bind(var.clone(), mask);
                        if let Some(ty) = self.env.type_of(value) {
                            self.env.bind(var, ty);
                        }
                    }
                    None => {
                        self.eval(target);
                    }
                }
                0
            }
            Expr::If {
                bound,
                cond,
                then,
                els,
            } => {
                let cond_mask = self.eval(cond);
                for name in bound {
                    self.bind(name.clone(), cond_mask);
                }
                let mut mask = self.walk_block(then);
                if let Some(e) = els {
                    mask |= self.eval(e);
                }
                mask
            }
            Expr::Match { scrutinee, arms } => {
                let scrut_mask = self.eval(scrutinee);
                // Arm payloads approximate their type with the
                // scrutinee's first type argument.
                let payload_ty = self
                    .env
                    .type_of(scrutinee)
                    .and_then(|t| t.args.first().cloned());
                let mut mask = 0;
                for arm in arms {
                    for name in &arm.bound {
                        self.bind(name.clone(), scrut_mask);
                        if let Some(ty) = &payload_ty {
                            self.env.bind(name, ty.clone());
                        }
                    }
                    if let Some(g) = &arm.guard {
                        self.eval(g);
                    }
                    mask |= self.eval(&arm.body);
                }
                mask
            }
            Expr::For {
                bound, iter, body, ..
            } => {
                let mut mask = self.eval(iter);
                let iter_ty = self.env.type_of(iter);
                if iter_ty.as_ref().is_some_and(|t| self.policy.iter_source(t)) {
                    mask |= MARK;
                }
                // `for (i, x) in xs.iter().enumerate()` — the index is a
                // counter, never content: only the payload binding gets
                // the collection's mask.
                let enumerated = matches!(
                    iter.as_ref(),
                    Expr::MethodCall { method, .. } if method == "enumerate"
                ) && bound.len() == 2;
                if enumerated {
                    self.bind(bound[0].clone(), 0);
                    self.bind(bound[1].clone(), mask);
                } else {
                    self.bind_elements(bound, mask, iter_ty.as_ref());
                }
                self.walk_block(body);
                0
            }
            Expr::While { bound, cond, body } => {
                let cond_mask = self.eval(cond);
                for name in bound {
                    self.bind(name.clone(), cond_mask);
                }
                self.walk_block(body);
                0
            }
            Expr::Closure { params, body, .. } => {
                // A bare closure (iterator-adapter arguments are bound at
                // the method call): parameters carry nothing, captures
                // keep their masks.
                for name in params {
                    self.bind(name.clone(), 0);
                }
                self.eval(body)
            }
            Expr::Macro {
                name,
                args,
                line,
                col,
            } => self.eval_macro(name, args, *line, *col),
            Expr::Call {
                callee,
                args,
                line,
                col,
            } => {
                let masks: Vec<u64> = args.iter().map(|a| self.eval(a)).collect();
                let segs = match callee.as_ref() {
                    Expr::Path { segs, .. } => segs.as_slice(),
                    _ => &[],
                };
                match self.policy.call_role(segs) {
                    CallRole::Sanitizer => 0,
                    CallRole::Sink(label) => {
                        let hits: Vec<_> = masks.iter().map(|m| (None, *m)).collect();
                        self.sink_hit(&hits, &label, *line, *col);
                        0
                    }
                    CallRole::Plain => {
                        let candidates = self.ws.resolve_call(callee, self.id);
                        let label = callee_label(callee);
                        let ret = self.apply_callees(&candidates, &masks, label, *line, *col);
                        self.clear_args(&candidates, args.iter());
                        ret
                    }
                }
            }
            Expr::MethodCall {
                recv,
                method,
                turbofish,
                args,
                line,
                col,
            } => self.eval_method(recv, method, turbofish, args, *line, *col),
        }
    }

    /// The mask of a local variable (0 when unknown).
    fn mask_of(&self, var: &str) -> u64 {
        self.masks.get(var).copied().unwrap_or(0)
    }

    /// Bind loop/closure element variables: the collection's mask, and
    /// element types from the collection's generic args when they line
    /// up (`for (k, v) in map` with `Map<K, V>`).
    fn bind_elements(&mut self, bound: &[String], mask: u64, coll_ty: Option<&Ty>) {
        for name in bound {
            self.bind(name.clone(), mask);
        }
        if let Some(ty) = coll_ty {
            let ty = ty.peeled();
            if bound.len() == ty.args.len() && bound.len() <= 2 {
                for (name, arg) in bound.iter().zip(&ty.args) {
                    self.env.bind(name, arg.clone());
                }
            }
        }
    }

    /// Macros: the payload is every argument after the writer (for
    /// `write!`/`writeln!`) plus the inline captures of every string
    /// literal. A sink consumes it; a write to a local writer composes
    /// into that variable; anything else combines it.
    fn eval_macro(&mut self, name: &str, args: &[Expr], line: u32, col: u32) -> u64 {
        let writes = name == "write" || name == "writeln";
        let masks: Vec<u64> = args.iter().map(|a| self.eval(a)).collect();
        let mut payload: Vec<(Option<String>, u64)> = masks
            .iter()
            .skip(usize::from(writes))
            .map(|m| (None, *m))
            .collect();
        for arg in args {
            if let Expr::Lit {
                kind: TokenKind::Str,
                text,
                ..
            } = arg
            {
                for cap in inline_format_args(text) {
                    let mask = self.mask_of(&cap);
                    payload.push((Some(cap), mask));
                }
            }
        }
        let writer = args.first().and_then(local).filter(|_| writes);
        let buffer = writer.is_some_and(|w| {
            let ty = self.env.lookup(w).map(|t| t.name.as_str());
            matches!(ty, Some("String" | "Vec"))
        });
        if let Some(sink) = self.policy.macro_sink(name, buffer) {
            self.sink_hit(&payload, &sink, line, col);
            return 0;
        }
        let combined = payload.iter().fold(0, |a, (_, m)| a | m);
        match writer {
            Some(w) => {
                *self.masks.entry(w.clone()).or_insert(0) |= combined;
                0
            }
            None => masks.iter().fold(combined, |a, m| a | m),
        }
    }

    fn eval_method(
        &mut self,
        recv: &Expr,
        method: &str,
        turbofish: &[Ty],
        args: &[Expr],
        line: u32,
        col: u32,
    ) -> u64 {
        let recv_mask = self.eval(recv);
        let recv_ty = self.env.type_of(recv);
        // Closure arguments to iterator adapters see the collection's
        // elements: bind their parameters to the receiver's mask/types.
        let mut masks = Vec::with_capacity(args.len() + 1);
        masks.push(recv_mask);
        for arg in args {
            if let Expr::Closure { params, body, .. } = arg {
                let elem_ty = recv_ty.as_ref().map(|t| t.peeled().clone());
                self.bind_elements(
                    params,
                    recv_mask,
                    elem_ty.as_ref().filter(|t| !t.args.is_empty()),
                );
                masks.push(self.eval(body));
            } else {
                masks.push(self.eval(arg));
            }
        }
        let site = MethodSite {
            recv,
            recv_ty: recv_ty.as_ref(),
            method,
            turbofish,
            masks: &masks,
            line,
            col,
        };
        let policy = self.policy;
        if let Some(mask) = policy.method(self, &site) {
            return mask;
        }
        if RECV_MUT.contains(&method) {
            if let Some(var) = local(recv) {
                let payload = masks[1..].iter().fold(0, |a, m| a | m);
                *self.masks.entry(var.clone()).or_insert(0) |= payload;
            }
        }
        let candidates = self.ws.resolve_method(recv_ty.as_ref(), method);
        let ret = self.apply_callees(&candidates, &masks, method, line, col);
        self.clear_args(&candidates, std::iter::once(recv).chain(args));
        ret
    }

    /// After a call: clear [`MARK`] on each argument variable that every
    /// candidate callee clears in place (`order(&mut rows)` sorting
    /// `rows`). `args` lines up with the callee's parameters.
    fn clear_args<'e>(&mut self, candidates: &[FnId], args: impl Iterator<Item = &'e Expr>) {
        let Some(clears) = candidates
            .iter()
            .map(|id| self.summaries[id.0].clears_param)
            .reduce(|a, b| a & b)
        else {
            return;
        };
        for (i, arg) in args.enumerate().take(62) {
            if clears & (1 << i) != 0 {
                self.clear_mark(arg);
            }
        }
    }

    /// Fold callee summaries into the caller: compute the return mask,
    /// propagate param-sink obligations, and report marked arguments
    /// that reach a sink inside a callee. With no candidate (std or
    /// unknown code) every input flows into the result.
    fn apply_callees(
        &mut self,
        candidates: &[FnId],
        masks: &[u64],
        label: &str,
        line: u32,
        col: u32,
    ) -> u64 {
        if candidates.is_empty() {
            return masks.iter().fold(0, |a, m| a | m);
        }
        let mut ret = 0;
        for id in candidates {
            let s = self.summaries[id.0];
            ret |= s.returns & MARK;
            for (i, mask) in masks.iter().enumerate().take(62) {
                if s.returns & (1 << i) != 0 {
                    ret |= mask;
                }
                if s.param_sink & (1 << i) != 0 {
                    if mask & MARK != 0 {
                        let callee = &self.ws.entry(*id).info.def.name;
                        let message = self.policy.callee_message(i, label, callee);
                        note(&mut self.findings, line, col, message);
                    }
                    self.summary.param_sink |= mask & !MARK;
                }
            }
        }
        ret
    }

    /// A sink consumed `masks` (each an argument, or a named inline
    /// capture): report marked ones, record parameter obligations.
    pub(crate) fn sink_hit(
        &mut self,
        masks: &[(Option<String>, u64)],
        sink: &str,
        line: u32,
        col: u32,
    ) {
        for (cap, mask) in masks {
            if mask & MARK != 0 {
                let what = match cap {
                    Some(c) => format!("inline capture `{{{c}}}`"),
                    None => "argument".to_string(),
                };
                let message = self.policy.sink_message(&what, sink);
                note(&mut self.findings, line, col, message);
            }
            self.summary.param_sink |= mask & !MARK;
        }
    }
}

/// `expr` with any unary operators (`&mut`, `*`) stripped.
fn peel_unary(mut expr: &Expr) -> &Expr {
    while let Expr::Unary { inner } = expr {
        expr = inner;
    }
    expr
}

/// The variable a single-segment path names.
fn local(expr: &Expr) -> Option<&String> {
    match expr {
        Expr::Path { segs, .. } if segs.len() == 1 => segs.first(),
        _ => None,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::parser::parse_file;
    use crate::rules::{FileInput, Prepared};
    use crate::symbols::FileModel;

    /// Run one workspace-level rule's `check` over in-memory sources.
    pub(crate) fn check_sources(
        check: fn(&Workspace, &Suppressions<'_>, &mut Vec<Diagnostic>),
        sources: &[(&str, &str)],
    ) -> Vec<Diagnostic> {
        let inputs: Vec<FileInput> = sources
            .iter()
            .map(|(rel, src)| FileInput {
                rel: rel.to_string(),
                class: crate::walker::classify(rel),
                crate_name: crate::walker::crate_name(rel),
                text: src.to_string(),
            })
            .collect();
        let preps: Vec<Prepared> = inputs.iter().map(Prepared::new).collect();
        let models = preps
            .iter()
            .map(|p| FileModel::build(p.input, &parse_file(&p.code)))
            .collect();
        let ws = Workspace::build(models);
        let sup = Suppressions::new(&preps);
        let mut out = Vec::new();
        check(&ws, &sup, &mut out);
        out
    }
}
