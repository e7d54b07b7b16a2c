//! The workspace-level function index and call resolution.
//!
//! Dataflow rules are interprocedural: a finding like "`doc.body`
//! reaches `emit`" may cross three functions in two crates. The
//! [`Workspace`] flattens every [`FileModel`] into one addressable list
//! of functions ([`FnId`]), merges the struct field types, and resolves
//! call expressions back to candidate definitions:
//!
//! * `Type::method(…)` / qualified paths resolve through the impl-type
//!   index;
//! * `recv.method(…)` resolves through the impl-type index when the
//!   receiver type is known, and falls back to "every method with this
//!   name" (a deliberate over-approximation — better a reviewed
//!   suppression than a silent leak) when it is not;
//! * free `name(…)` calls resolve to the caller's own file's free
//!   function of that name when there is one (Rust scoping never looks
//!   past it), else by bare name across the workspace.
//!
//! Resolution never leaves the workspace: calls into `std` or vendored
//! crates return no candidates, and each rule models the handful of
//! std methods it cares about (e.g. `Condvar::wait`) explicitly.

use crate::parser::{Expr, Ty};
use crate::symbols::{merge_type_table, FileModel, FnInfo, TypeEnv, TypeTable};
use std::collections::BTreeMap;

/// Index of a function in [`Workspace::fns`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnId(pub usize);

/// One function plus where it came from.
#[derive(Debug, Clone)]
pub struct FnEntry {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// The function itself.
    pub info: FnInfo,
}

/// The merged model of every parsed file.
pub struct Workspace {
    /// Per-file models, in walk order.
    pub files: Vec<FileModel>,
    /// Every function in the workspace.
    pub fns: Vec<FnEntry>,
    /// Workspace-wide struct field types.
    pub table: TypeTable,
    /// Declared return types of *unambiguously named* functions — every
    /// same-named fn in the workspace agrees on the type, so a bare
    /// `name(…)` call can be typed without resolution.
    pub rets: BTreeMap<String, Ty>,
    by_name: BTreeMap<String, Vec<FnId>>,
    by_qual: BTreeMap<(String, String), Vec<FnId>>,
}

impl Workspace {
    /// Build the index from per-file models.
    pub fn build(files: Vec<FileModel>) -> Self {
        let table = merge_type_table(&files);
        let mut fns = Vec::new();
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        let mut by_qual: BTreeMap<(String, String), Vec<FnId>> = BTreeMap::new();
        for (file_idx, model) in files.iter().enumerate() {
            for info in &model.fns {
                let id = FnId(fns.len());
                by_name.entry(info.def.name.clone()).or_default().push(id);
                if let Some(q) = &info.qual {
                    by_qual
                        .entry((q.clone(), info.def.name.clone()))
                        .or_default()
                        .push(id);
                }
                fns.push(FnEntry {
                    file: file_idx,
                    info: info.clone(),
                });
            }
        }
        let mut ret_sets: BTreeMap<&String, Vec<&Option<Ty>>> = BTreeMap::new();
        for entry in &fns {
            ret_sets
                .entry(&entry.info.def.name)
                .or_default()
                .push(&entry.info.def.ret);
        }
        let rets = ret_sets
            .into_iter()
            .filter_map(|(name, tys)| {
                // Unit-returning or divergently-typed namesakes poison the
                // name: a bare call could be any of them.
                let first = tys.first().copied()?.as_ref()?;
                tys.iter()
                    .all(|t| t.as_ref().is_some_and(|t| t.name == first.name))
                    .then(|| (name.clone(), first.clone()))
            })
            .collect();
        Self {
            files,
            fns,
            table,
            rets,
            by_name,
            by_qual,
        }
    }

    /// The function behind an id.
    pub fn entry(&self, id: FnId) -> &FnEntry {
        &self.fns[id.0]
    }

    /// The file a function lives in.
    pub fn file_of(&self, id: FnId) -> &FileModel {
        &self.files[self.entry(id).file]
    }

    /// A fresh type environment seeded with a function's parameters.
    pub fn env_for(&self, id: FnId) -> TypeEnv<'_> {
        TypeEnv::with_params(&self.table, &self.entry(id).info.def).with_returns(&self.rets)
    }

    /// Resolve a free/qualified call expression (`foo(…)`,
    /// `Type::method(…)`, `module::foo(…)`) made inside `from` to
    /// candidate definitions.
    pub fn resolve_call(&self, callee: &Expr, from: FnId) -> Vec<FnId> {
        let Expr::Path { segs, .. } = callee else {
            return Vec::new();
        };
        let Some(name) = segs.last() else {
            return Vec::new();
        };
        if segs.len() >= 2 {
            let qual = &segs[segs.len() - 2];
            if qual.chars().next().is_some_and(char::is_uppercase) {
                // `Type::method` — exact impl lookup only.
                return self
                    .by_qual
                    .get(&(qual.clone(), name.clone()))
                    .cloned()
                    .unwrap_or_default();
            }
        }
        let all = self.by_name.get(name).cloned().unwrap_or_default();
        if segs.len() == 1 {
            let file = self.entry(from).file;
            let local: Vec<FnId> = all
                .iter()
                .copied()
                .filter(|id| self.entry(*id).file == file && self.entry(*id).info.qual.is_none())
                .collect();
            if !local.is_empty() {
                return local;
            }
        }
        all
    }

    /// Resolve `recv.method(…)` to candidate definitions. When the
    /// receiver type is unknown, every same-named method (fn with a
    /// `self` parameter) is a candidate.
    pub fn resolve_method(&self, recv_ty: Option<&Ty>, method: &str) -> Vec<FnId> {
        if let Some(ty) = recv_ty {
            return self
                .by_qual
                .get(&(ty.peeled().name.clone(), method.to_string()))
                .cloned()
                .unwrap_or_default();
        }
        self.by_name
            .get(method)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|id| {
                        self.entry(*id)
                            .info
                            .def
                            .params
                            .first()
                            .is_some_and(|(n, _)| n == "self")
                    })
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_file;
    use crate::rules::FileInput;

    fn ws(sources: &[(&str, &str)]) -> Workspace {
        let models = sources
            .iter()
            .map(|(rel, src)| {
                let input = FileInput {
                    rel: rel.to_string(),
                    class: crate::walker::classify(rel),
                    crate_name: crate::walker::crate_name(rel),
                    text: src.to_string(),
                };
                let toks: Vec<_> = lex(src).into_iter().filter(|t| !t.is_comment()).collect();
                FileModel::build(&input, &parse_file(&toks))
            })
            .collect();
        Workspace::build(models)
    }

    fn path(segs: &[&str]) -> Expr {
        Expr::Path {
            segs: segs.iter().map(|s| s.to_string()).collect(),
            line: 1,
            col: 1,
        }
    }

    /// The id of the function named `name` in file `file`.
    fn fn_in(w: &Workspace, file: usize, name: &str) -> FnId {
        (0..w.fns.len())
            .map(FnId)
            .find(|id| w.entry(*id).file == file && w.entry(*id).info.def.name == name)
            .expect("fixture defines the function")
    }

    #[test]
    fn qualified_and_free_calls_resolve() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "impl Tenant { fn report(&self) {} }\nfn report() {}\nfn free() {}",
            ),
            ("crates/b/src/lib.rs", "fn free() {}"),
            ("crates/c/src/lib.rs", "fn caller() {}"),
        ]);
        let from = fn_in(&w, 2, "caller");
        // Type::method hits only the impl.
        let ids = w.resolve_call(&path(&["Tenant", "report"]), from);
        assert_eq!(ids.len(), 1);
        assert_eq!(w.entry(ids[0]).info.qual.as_deref(), Some("Tenant"));
        // From a third file, a bare name hits both candidates.
        assert_eq!(w.resolve_call(&path(&["free"]), from).len(), 2);
        // Unknown stays empty.
        assert!(w.resolve_call(&path(&["nope"]), from).is_empty());
    }

    #[test]
    fn bare_call_prefers_the_callers_own_file() {
        let w = ws(&[
            ("crates/a/src/lib.rs", "fn fixture() {}\nfn caller() {}"),
            ("crates/b/src/lib.rs", "fn fixture() {}"),
        ]);
        let ids = w.resolve_call(&path(&["fixture"]), fn_in(&w, 0, "caller"));
        assert_eq!(ids, vec![fn_in(&w, 0, "fixture")]);
        // A qualified path is not a bare name: no local preference.
        let qualified = w.resolve_call(&path(&["b", "fixture"]), fn_in(&w, 0, "caller"));
        assert_eq!(qualified.len(), 2);
        // A same-named method is out of a bare call's scope.
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "impl S { fn fixture(&self) {} }\nfn caller() {}",
            ),
            ("crates/b/src/lib.rs", "fn fixture() {}"),
        ]);
        let ids = w.resolve_call(&path(&["fixture"]), fn_in(&w, 0, "caller"));
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn method_resolution_typed_and_fallback() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl Queue { fn push(&self) {} }\nimpl Vecish { fn push(&self) {} }\nfn push() {}",
        )]);
        let ty = Ty::simple("Queue");
        let ids = w.resolve_method(Some(&ty), "push");
        assert_eq!(ids.len(), 1);
        assert_eq!(w.entry(ids[0]).info.qual.as_deref(), Some("Queue"));
        // Unknown receiver: both methods, but not the free fn.
        assert_eq!(w.resolve_method(None, "push").len(), 2);
    }
}
