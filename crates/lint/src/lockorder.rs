//! `lock-order`: workspace-wide lock-acquisition-order analysis.
//!
//! Every engine/obs/serve subsystem guards shared state with
//! `std::sync::Mutex`/`RwLock`. Two hazards survive code review
//! routinely and deadlock only under load:
//!
//! 1. **Order cycles** — thread 1 acquires `A` then `B`, thread 2
//!    acquires `B` then `A`. The rule identifies each lock as
//!    `Type.field` (via the symbol model; textual fallback when the
//!    receiver type is unknown), records every "acquired `B` while
//!    holding `A`" edge — including acquisitions inside callees, via
//!    per-function summaries — and fails when the resulting directed
//!    graph has a cycle.
//! 2. **Guards held across blocking calls** — holding a guard over
//!    socket/file I/O, `JoinHandle::join`, channel `send`/`recv`, or a
//!    `Condvar` wait serializes the system on that lock (and can
//!    deadlock outright when the blocked peer needs it).
//!    `Condvar::wait(g)` atomically releases its *own* guard, so only
//!    *other* held guards are flagged there.
//! 3. **Guard discipline** — re-locking a mutex while one of its named
//!    guards is still live (a self-deadlock with `std::sync::Mutex`),
//!    and a guard freshly acquired into a `let` that binds nothing
//!    (`let _ = m.lock();` releases it immediately).
//!
//! Guard liveness follows `let` bindings: a guard lives until `drop`,
//! shadowing, or the end of its block; an unbound acquisition
//! (`x.lock().unwrap().push(…)`) is a statement-scoped temporary.
//! Closure bodies are analyzed with an empty held set — they may run on
//! another thread, so the definition site's guards are not "held" there.
//! A re-lock is checked against direct acquisitions only; acquisitions
//! inside callees add order edges but no self-edges.
//!
//! The rule runs on the shared fixpoint loop (`flow.rs`) over every
//! scanned file.

use crate::callgraph::{FnId, Workspace};
use crate::diag::Diagnostic;
use crate::flow::{self, callee_label, Findings};
use crate::parser::{Block, Expr, Stmt};
use crate::rules::Suppressions;
use crate::symbols::TypeEnv;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The rule name.
pub const RULE: &str = "lock-order";

/// Method names that block (I/O, accept, join, channel receives): a
/// guard must not be held across them.
const BLOCKING: [&str; 11] = [
    "write_all",
    "read_exact",
    "read_to_string",
    "read_to_end",
    "read_line",
    "flush",
    "accept",
    "connect",
    "join",
    "recv",
    "recv_timeout",
];

/// Methods that pass a guard through unchanged.
const GUARD_PASSTHROUGH: [&str; 5] = ["unwrap", "expect", "unwrap_or_else", "into_inner", "as_mut"];

/// `Condvar` wait methods: arg 0 (or the receiver's pair) is released.
const WAIT_METHODS: [&str; 3] = ["wait", "wait_timeout", "wait_while"];

/// Per-function summary for the interprocedural pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Summary {
    /// Lock ids acquired anywhere inside (transitively).
    acquires: BTreeSet<String>,
    /// A blocking operation reachable inside (name, for messages).
    blocks: Option<String>,
    /// The lock id this function returns a live guard of.
    returns_guard: Option<String>,
}

/// One "acquired `to` while holding `from`" observation.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    file: String,
    line: u32,
    col: u32,
}

/// Run the rule over the whole workspace.
pub fn check(ws: &Workspace, sup: &Suppressions<'_>, out: &mut Vec<Diagnostic>) {
    let mut edges: Vec<Edge> = Vec::new();
    flow::fixpoint(ws, RULE, sup, out, |summaries, id, findings| {
        let reporting = findings.is_some();
        let mut cx = LockCx::new(ws, summaries, id, findings);
        let summary = cx.run();
        if reporting {
            let rel = &ws.file_of(id).rel;
            edges.extend(cx.edges.into_iter().map(|e| Edge {
                file: rel.clone(),
                ..e
            }));
        }
        summary
    });
    report_cycles(&edges, sup, out);
}

/// Find order cycles in the edge set and report each offending edge
/// (once per `from → to` pair, at its first site in path order).
fn report_cycles(edges: &[Edge], sup: &Suppressions<'_>, out: &mut Vec<Diagnostic>) {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen = BTreeSet::new();
        let mut queue = VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            if n == to {
                return true;
            }
            if let Some(next) = adj.get(n) {
                for m in next {
                    if seen.insert(*m) {
                        queue.push_back(m);
                    }
                }
            }
        }
        false
    };
    let mut sites: BTreeMap<(&str, &str), &Edge> = BTreeMap::new();
    for e in edges {
        let key = (e.from.as_str(), e.to.as_str());
        let site = sites.entry(key).or_insert(e);
        if (e.file.as_str(), e.line, e.col) < (site.file.as_str(), site.line, site.col) {
            *site = e;
        }
    }
    for ((from, to), e) in sites {
        if from != to && reaches(to, from) && !sup.allowed(&e.file, e.line, RULE) {
            out.push(Diagnostic::new(
                &e.file,
                e.line,
                e.col,
                RULE,
                format!(
                    "lock-order cycle: `{to}` is acquired while `{from}` is held here, but \
                     the reverse order also occurs in the workspace — pick one global \
                     acquisition order"
                ),
            ));
        }
    }
}

/// A live guard, bound to a variable, in some scope.
#[derive(Debug, Clone)]
struct Held {
    lock: String,
    var: String,
}

/// Per-function walk context.
struct LockCx<'a, 'f> {
    ws: &'a Workspace,
    summaries: &'a [Summary],
    id: FnId,
    env: TypeEnv<'a>,
    /// Scope stack of live guards.
    held: Vec<Vec<Held>>,
    /// Acquisitions so far (a `let` that binds nothing is flagged only
    /// when its initializer acquired a guard afresh).
    acquired: usize,
    summary: Summary,
    findings: Option<&'f mut Findings>,
    edges: Vec<Edge>,
}

impl<'a, 'f> LockCx<'a, 'f> {
    fn new(
        ws: &'a Workspace,
        summaries: &'a [Summary],
        id: FnId,
        findings: Option<&'f mut Findings>,
    ) -> Self {
        Self {
            ws,
            summaries,
            id,
            env: ws.env_for(id),
            held: vec![Vec::new()],
            acquired: 0,
            summary: Summary::default(),
            findings,
            edges: Vec::new(),
        }
    }

    fn run(&mut self) -> Summary {
        let Some(body) = flow::body_of(self.ws, self.id) else {
            return Summary::default();
        };
        let tail = self.walk_block(body);
        self.summary.returns_guard = self.summary.returns_guard.take().or(tail);
        self.summary.clone()
    }

    fn finding(&mut self, line: u32, col: u32, message: String) {
        flow::note(&mut self.findings, line, col, message);
    }

    fn held_guards(&self) -> Vec<Held> {
        self.held.iter().flatten().cloned().collect()
    }

    /// Record the acquisition of `lock`: order edges against every held
    /// guard, plus the summary entry.
    fn acquire(&mut self, lock: &str, line: u32, col: u32) {
        for h in self.held_guards() {
            if h.lock != lock {
                self.edges.push(Edge {
                    from: h.lock,
                    to: lock.to_string(),
                    file: String::new(),
                    line,
                    col,
                });
            }
        }
        self.summary.acquires.insert(lock.to_string());
        self.acquired += 1;
    }

    /// A blocking operation at `line`: flag every held guard.
    fn block_here(&mut self, what: &str, line: u32, col: u32, released: Option<&str>) {
        if self.summary.blocks.is_none() {
            self.summary.blocks = Some(what.to_string());
        }
        let held = self.held_guards();
        let held: Vec<&Held> = held
            .iter()
            .filter(|h| released != Some(h.var.as_str()))
            .collect();
        if let Some(h) = held.first() {
            self.finding(
                line,
                col,
                format!(
                    "guard of `{}` held across blocking `{what}` — drop the guard (or move \
                     the blocking work outside the critical section) first",
                    h.lock
                ),
            );
        }
    }

    fn drop_var(&mut self, name: &str) {
        for scope in &mut self.held {
            scope.retain(|h| h.var != name);
        }
    }

    /// Walk a block; returns the lock id if its tail expression is a
    /// guard (for `returns_guard` summaries).
    fn walk_block(&mut self, block: &Block) -> Option<String> {
        self.held.push(Vec::new());
        self.env.push();
        let mut tail = None;
        for stmt in &block.stmts {
            tail = None;
            match stmt {
                Stmt::Let {
                    bound,
                    ty,
                    init,
                    line,
                    col,
                } => {
                    let before = self.acquired;
                    let guard = init.as_ref().and_then(|e| self.eval(e));
                    let inferred = ty
                        .clone()
                        .or_else(|| init.as_ref().and_then(|e| self.env.type_of(e)));
                    let fresh = self.acquired > before;
                    if let Some(lock) = guard.as_ref().filter(|_| fresh && bound.is_empty()) {
                        self.finding(
                            *line,
                            *col,
                            format!(
                                "lock guard of `{lock}` bound to `_` is dropped \
                                 immediately — bind it to a name (or drop the call)"
                            ),
                        );
                    }
                    if bound.len() == 1 {
                        self.drop_var(&bound[0]);
                        if let (Some(lock), Some(scope)) = (guard, self.held.last_mut()) {
                            scope.push(Held {
                                lock,
                                var: bound[0].clone(),
                            });
                        }
                        if let Some(t) = inferred {
                            self.env.bind(&bound[0], t);
                        }
                    }
                }
                Stmt::Semi(e) => {
                    self.eval(e);
                }
                Stmt::Expr(e) => {
                    tail = self.eval(e);
                }
                Stmt::Item(_) => {}
            }
        }
        self.held.pop();
        self.env.pop();
        tail
    }

    /// Evaluate an expression; returns the lock id when the value is a
    /// live guard.
    fn eval(&mut self, expr: &Expr) -> Option<String> {
        match expr {
            Expr::Path { segs, .. } => {
                if segs.len() == 1 {
                    self.held
                        .iter()
                        .flatten()
                        .find(|h| h.var == segs[0])
                        .map(|h| h.lock.clone())
                } else {
                    None
                }
            }
            Expr::Lit { .. } | Expr::Opaque { .. } => None,
            Expr::Field { base, .. } => {
                self.eval(base);
                None
            }
            Expr::Unary { inner } => self.eval(inner),
            Expr::Index { base, index } => {
                self.eval(base);
                self.eval(index);
                None
            }
            Expr::Group { parts } => {
                let mut guard = None;
                for p in parts {
                    guard = self.eval(p).or(guard);
                }
                guard
            }
            Expr::Struct { fields, .. } => {
                for (_, v) in fields {
                    self.eval(v);
                }
                None
            }
            Expr::Block(b) => self.walk_block(b),
            Expr::Return { value } => {
                let guard = value.as_ref().and_then(|v| self.eval(v));
                if self.summary.returns_guard.is_none() {
                    self.summary.returns_guard = guard;
                }
                None
            }
            Expr::Assign { target, value, .. } => {
                let guard = self.eval(value);
                if let Expr::Path { segs, .. } = target.as_ref() {
                    if segs.len() == 1 {
                        self.drop_var(&segs[0]);
                        if let (Some(lock), Some(scope)) = (guard, self.held.last_mut()) {
                            scope.push(Held {
                                lock,
                                var: segs[0].clone(),
                            });
                        }
                        return None;
                    }
                }
                None
            }
            Expr::If {
                cond, then, els, ..
            } => {
                self.eval(cond);
                let saved = self.held.clone();
                let mut guard = self.walk_block(then);
                self.held = saved.clone();
                if let Some(e) = els {
                    guard = self.eval(e).or(guard);
                    self.held = saved;
                }
                guard
            }
            Expr::Match { scrutinee, arms } => {
                self.eval(scrutinee);
                let saved = self.held.clone();
                let mut guard = None;
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        self.eval(g);
                    }
                    guard = self.eval(&arm.body).or(guard);
                    self.held = saved.clone();
                }
                guard
            }
            Expr::For { iter, body, .. } => {
                self.eval(iter);
                self.walk_block(body);
                None
            }
            Expr::While { cond, body, .. } => {
                self.eval(cond);
                self.walk_block(body);
                None
            }
            Expr::Closure { body, .. } => {
                // The closure may run on another thread/later: analyze
                // with an empty held set, but keep its acquisitions in
                // this function's summary (conservative).
                let saved = std::mem::replace(&mut self.held, vec![Vec::new()]);
                self.eval(body);
                self.held = saved;
                None
            }
            Expr::Macro { args, .. } => {
                for a in args {
                    self.eval(a);
                }
                None
            }
            Expr::Call {
                callee,
                args,
                line,
                col,
            } => self.eval_call(callee, args, *line, *col),
            Expr::MethodCall {
                recv,
                method,
                args,
                line,
                col,
                ..
            } => self.eval_method(recv, method, args, *line, *col),
        }
    }

    fn eval_call(&mut self, callee: &Expr, args: &[Expr], line: u32, col: u32) -> Option<String> {
        if let Expr::Path { segs, .. } = callee {
            // `drop(g)` / `std::mem::drop(g)` releases a guard.
            if segs.last().is_some_and(|s| s == "drop") {
                if let Some(Expr::Path { segs: var, .. }) = args.first() {
                    if var.len() == 1 {
                        self.eval(&args[0]);
                        self.drop_var(&var[0]);
                        return None;
                    }
                }
            }
            // `fs::write`/`fs::read*` block on disk I/O.
            if segs.len() >= 2
                && segs[segs.len() - 2] == "fs"
                && segs
                    .last()
                    .is_some_and(|s| s.starts_with("read") || s.starts_with("write"))
            {
                for a in args {
                    self.eval(a);
                }
                self.block_here(&format!("fs::{}", segs[segs.len() - 1]), line, col, None);
                return None;
            }
        }
        for a in args {
            self.eval(a);
        }
        let mut guard = None;
        for id in self.ws.resolve_call(callee, self.id) {
            let s = self.summaries[id.0].clone();
            self.apply_summary(&s, line, col, callee_label(callee));
            guard = guard.or(s.returns_guard);
        }
        guard
    }

    fn eval_method(
        &mut self,
        recv: &Expr,
        method: &str,
        args: &[Expr],
        line: u32,
        col: u32,
    ) -> Option<String> {
        // Condvar waits release their own guard but block on everything
        // else that is held.
        if WAIT_METHODS.contains(&method) {
            self.eval(recv);
            let released = match args.first() {
                Some(Expr::Path { segs, .. }) if segs.len() == 1 => Some(segs[0].clone()),
                _ => None,
            };
            for a in args.iter().skip(1) {
                self.eval(a);
            }
            self.block_here(
                &format!("Condvar::{method}"),
                line,
                col,
                released.as_deref(),
            );
            // The wait hands its guard back (re-acquired), so the binding
            // stays held.
            return None;
        }
        let recv_guard = self.eval(recv);
        // Guard pass-through (`.lock().unwrap()`, `.expect(…)`).
        if GUARD_PASSTHROUGH.contains(&method) {
            for a in args {
                self.eval(a);
            }
            if recv_guard.is_some() {
                return recv_guard;
            }
        } else {
            for a in args {
                self.eval(a);
            }
        }
        // Lock acquisition: `.lock()` always; `.read()`/`.write()` only
        // on a receiver the model can type as RwLock (plain `.write(…)`
        // is I/O, not a lock).
        let recv_ty = self.env.type_of(recv);
        let is_lock_recv = recv_ty.as_ref().is_some_and(is_lock_ty);
        let acquires = method == "lock" && args.is_empty()
            || (matches!(method, "read" | "write") && args.is_empty() && is_lock_recv);
        if acquires && (is_lock_recv || recv_ty.is_none()) {
            let lock = self.lock_id(recv);
            if let Some(h) = self.held.iter().flatten().find(|h| h.lock == lock) {
                let message = format!(
                    "`{lock}` is locked again while guard `{}` from the same mutex is still \
                     live in this scope — this deadlocks std::sync::Mutex (drop the first \
                     guard, or restructure)",
                    h.var
                );
                self.finding(line, col, message);
            }
            self.acquire(&lock, line, col);
            return Some(lock);
        }
        // Blocking methods (socket/file I/O, join, channel ops) — unless
        // the receiver is typed as a plain data container, where the same
        // names mean something harmless (`Path::join`, `Vec::append`,
        // `String::flush` does not exist but `fmt::Write` adapters do).
        let data_recv = recv_ty.as_ref().is_some_and(|t| {
            matches!(
                t.peeled().name.as_str(),
                "Path"
                    | "PathBuf"
                    | "String"
                    | "str"
                    | "Vec"
                    | "VecDeque"
                    | "OsString"
                    | "OsStr"
                    | "[slice]"
            )
        });
        if BLOCKING.contains(&method) && !data_recv {
            self.block_here(&format!(".{method}()"), line, col, None);
            return None;
        }
        // Workspace method: fold in the callee summary — but only under
        // *typed* resolution. The unknown-receiver fallback ("every
        // method with this name") is fine for taint, where a miss is a
        // leak; here it would make every `vec.push(…)` inherit
        // `Queue::push`'s Condvar wait and drown the rule in noise.
        recv_ty.as_ref()?;
        let mut guard = None;
        for id in self.ws.resolve_method(recv_ty.as_ref(), method) {
            let s = self.summaries[id.0].clone();
            self.apply_summary(&s, line, col, method);
            guard = guard.or(s.returns_guard);
        }
        guard
    }

    /// Fold a callee summary into this call site: its acquisitions form
    /// edges against our held guards, and a blocking callee is a
    /// blocking call.
    fn apply_summary(&mut self, s: &Summary, line: u32, col: u32, label: &str) {
        for lock in &s.acquires {
            self.acquire(lock, line, col);
        }
        if let Some(what) = &s.blocks {
            self.block_here(
                &format!("`{label}` (which blocks on {what})"),
                line,
                col,
                None,
            );
        }
    }

    /// The identity of the lock behind a receiver expression:
    /// `Type.field` when the model can type the field's base, else the
    /// textual receiver path qualified by the surrounding impl type.
    fn lock_id(&self, recv: &Expr) -> String {
        if let Expr::Field { base, name, .. } = recv {
            if let Some(ty) = self.env.type_of(base) {
                return format!("{}.{name}", ty.peeled().name);
            }
        }
        let rendered = render(recv);
        match &self.ws.entry(self.id).info.qual {
            Some(q) => format!("{q}::{rendered}"),
            None => rendered,
        }
    }
}

/// Whether a type is (a shared-pointer wrapper around) a lock.
fn is_lock_ty(ty: &crate::parser::Ty) -> bool {
    match ty.name.as_str() {
        "Mutex" | "RwLock" => true,
        "Arc" | "Rc" | "Box" | "RefCell" => ty.args.first().is_some_and(is_lock_ty),
        _ => false,
    }
}

/// Textual rendering of a receiver path for the untyped fallback id.
fn render(expr: &Expr) -> String {
    match expr {
        Expr::Path { segs, .. } => segs.join("::"),
        Expr::Field { base, name, .. } => format!("{}.{name}", render(base)),
        Expr::Unary { inner } => render(inner),
        Expr::MethodCall { recv, method, .. } => format!("{}.{method}()", render(recv)),
        _ => "?".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::tests::check_sources;

    const TWO_LOCKS: &str = "pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n";

    #[test]
    fn opposite_orders_cycle() {
        let diags = check_sources(check, &[(
            "crates/engine/src/x.rs",
            &format!(
                "{TWO_LOCKS}impl S {{\n\
                 fn one(&self) {{ let g = self.a.lock().unwrap(); let h = self.b.lock().unwrap(); }}\n\
                 fn two(&self) {{ let g = self.b.lock().unwrap(); let h = self.a.lock().unwrap(); }}\n}}"
            ),
        )]);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags[0].message.contains("cycle"), "{diags:?}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let diags = check_sources(check, &[(
            "crates/engine/src/x.rs",
            &format!(
                "{TWO_LOCKS}impl S {{\n\
                 fn one(&self) {{ let g = self.a.lock().unwrap(); let h = self.b.lock().unwrap(); }}\n\
                 fn two(&self) {{ let g = self.a.lock().unwrap(); let h = self.b.lock().unwrap(); }}\n}}"
            ),
        )]);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn cycle_through_callee_summary() {
        let diags = check_sources(check, &[(
            "crates/engine/src/x.rs",
            &format!(
                "{TWO_LOCKS}impl S {{\n\
                 fn inner(&self) {{ let g = self.b.lock().unwrap(); }}\n\
                 fn outer(&self) {{ let g = self.a.lock().unwrap(); self.inner(); }}\n\
                 fn rev(&self) {{ let g = self.b.lock().unwrap(); let h = self.a.lock().unwrap(); }}\n}}"
            ),
        )]);
        assert!(!diags.is_empty(), "{diags:?}");
        assert!(
            diags.iter().any(|d| d.message.contains("cycle")),
            "{diags:?}"
        );
    }

    #[test]
    fn guard_across_blocking_write_flagged_drop_clears() {
        let flagged = check_sources(
            check,
            &[(
                "crates/obs/src/x.rs",
                "pub struct S { a: Mutex<u32> }\nimpl S {\n\
             fn bad(&self, out: &mut TcpStream) {\n\
             let g = self.a.lock().unwrap();\nout.write_all(b\"x\");\n}\n}",
            )],
        );
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        assert!(flagged[0].message.contains("write_all"), "{flagged:?}");
        let clean = check_sources(
            check,
            &[(
                "crates/obs/src/x.rs",
                "pub struct S { a: Mutex<u32> }\nimpl S {\n\
             fn ok(&self, out: &mut TcpStream) {\n\
             let g = self.a.lock().unwrap();\ndrop(g);\nout.write_all(b\"x\");\n}\n}",
            )],
        );
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn scoped_guard_released_at_block_end() {
        let diags = check_sources(
            check,
            &[(
                "crates/obs/src/x.rs",
                "pub struct S { a: Mutex<u32> }\nimpl S {\n\
             fn ok(&self, out: &mut TcpStream) {\n\
             { let g = self.a.lock().unwrap(); }\nout.write_all(b\"x\");\n}\n}",
            )],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn condvar_wait_releases_own_guard_flags_others() {
        let own = check_sources(
            check,
            &[(
                "crates/engine/src/x.rs",
                "pub struct S { a: Mutex<u32>, cv: Condvar }\nimpl S {\n\
             fn ok(&self) { let g = self.a.lock().unwrap(); let g = self.cv.wait(g); }\n}",
            )],
        );
        assert!(own.is_empty(), "{own:?}");
        let other = check_sources(
            check,
            &[(
                "crates/engine/src/x.rs",
                "pub struct S { a: Mutex<u32>, b: Mutex<u32>, cv: Condvar }\nimpl S {\n\
             fn bad(&self) {\nlet g = self.a.lock().unwrap();\nlet h = self.b.lock().unwrap();\n\
             let h = self.cv.wait(h);\n}\n}",
            )],
        );
        assert_eq!(other.len(), 1, "{other:?}");
        assert!(other[0].message.contains("Condvar"), "{other:?}");
    }

    #[test]
    fn guard_returning_helper_participates_in_edges() {
        let diags = check_sources(
            check,
            &[(
                "crates/serve/src/x.rs",
                &format!(
                    "{TWO_LOCKS}impl S {{\n\
                 fn grab(&self) -> MutexGuard<u32> {{ self.a.lock().unwrap() }}\n\
                 fn one(&self) {{ let g = self.grab(); let h = self.b.lock().unwrap(); }}\n\
                 fn two(&self) {{ let g = self.b.lock().unwrap(); let h = self.grab(); }}\n}}"
                ),
            )],
        );
        assert!(!diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn closure_body_starts_with_empty_held_set() {
        // The spawn'd closure acquires `a`; the spawner holds `b` at the
        // definition site — no edge (the closure runs elsewhere).
        let diags = check_sources(
            check,
            &[(
                "crates/engine/src/x.rs",
                &format!(
                    "{TWO_LOCKS}impl S {{\n\
                 fn go(&self) {{ let g = self.b.lock().unwrap(); \
                 spawn(|| {{ let h = self.a.lock().unwrap(); }}); }}\n}}"
                ),
            )],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    const ONE_LOCK: &str = "pub struct S { m: Mutex<u32> }\n";

    fn lint_method(body: &str) -> Vec<Diagnostic> {
        check_sources(
            check,
            &[(
                "crates/engine/src/x.rs",
                &format!("{ONE_LOCK}impl S {{\nfn f(&self) {{ {body} }}\n}}"),
            )],
        )
    }

    #[test]
    fn relock_flagged_drop_and_sibling_scopes_clear() {
        let relock = lint_method("let a = self.m.lock(); let b = self.m.lock();");
        assert_eq!(relock.len(), 1, "{relock:?}");
        assert!(relock[0].message.contains("locked again"), "{relock:?}");
        assert!(relock[0].message.contains("`a`"), "{relock:?}");
        let dropped = lint_method("let a = self.m.lock(); drop(a); let b = self.m.lock();");
        assert!(dropped.is_empty(), "{dropped:?}");
        let sibling = lint_method("{ let a = self.m.lock(); } { let b = self.m.lock(); }");
        assert!(sibling.is_empty(), "{sibling:?}");
    }

    #[test]
    fn fresh_guard_bound_to_nothing_flagged() {
        let diags = lint_method("let _ = self.m.lock();");
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("bound to `_`"), "{diags:?}");
        // Reported at the `let` token.
        assert_eq!((diags[0].line, diags[0].col), (3, 15), "{diags:?}");
        // Discarding an existing guard (or a tuple of them) acquires
        // nothing new.
        let live = lint_method("let g = self.m.lock(); let _ = g;");
        assert!(live.is_empty(), "{live:?}");
        let pair = lint_method("let a = self.m.lock(); let b = 1; let _ = (a, b);");
        assert!(pair.is_empty(), "{pair:?}");
    }

    #[test]
    fn suppression_is_honored() {
        let diags = check_sources(
            check,
            &[(
                "crates/obs/src/x.rs",
                "pub struct S { a: Mutex<u32> }\nimpl S {\n\
             fn bad(&self, out: &mut TcpStream) {\n\
             let g = self.a.lock().unwrap();\n\
             // dox-lint:allow(lock-order) short critical section, bounded write\n\
             out.write_all(b\"x\");\n}\n}",
            )],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }
}
