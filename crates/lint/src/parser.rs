//! A small, recovery-tolerant Rust parser over the [`crate::lexer`]
//! token stream.
//!
//! The dataflow rules (`pii-taint`, `lock-order`, `determinism-flow`)
//! need to follow *values* — through let-bindings, calls, field and
//! method expressions — which a flat token stream cannot express. This
//! parser produces exactly the shape those rules consume: items, `fn`
//! signatures with typed parameters, `impl` blocks, struct field types,
//! and an expression tree with spans. It is *not* a full Rust grammar:
//!
//! * macros-by-example are never expanded — a macro invocation becomes
//!   [`Expr::Macro`] with its arguments parsed best-effort as a comma
//!   list;
//! * patterns are reduced to the identifiers they bind;
//! * types are reduced to their last path segment plus generic
//!   arguments ([`Ty`]);
//! * anything it cannot parse degrades *gracefully*: the construct
//!   becomes [`Expr::Opaque`] (or the enclosing fn is marked
//!   [`FnDef::degraded`]) and analysis of everything else continues.
//!   The parser never panics on any input (asserted over the whole
//!   workspace by the parser smoke test).

use crate::lexer::{Token, TokenKind};

/// A type reduced to its last path segment and generic arguments.
///
/// `std::collections::HashMap<u64, Trace>` becomes
/// `Ty { name: "HashMap", args: [Ty("u64"), Ty("Trace")] }`; references,
/// lifetimes, `dyn`/`impl` and `mut` are stripped. Tuples parse as a
/// `Ty` named `"(tuple)"` whose args are the element types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ty {
    /// Last path segment (`HashMap`, `Mutex`, `u64`, …).
    pub name: String,
    /// Generic arguments, in order.
    pub args: Vec<Ty>,
}

impl Ty {
    /// A type with no generic arguments.
    pub fn simple(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            args: Vec::new(),
        }
    }

    /// Peel smart-pointer/cell wrappers (`Arc`, `Rc`, `Box`, `Mutex`,
    /// `RwLock`, `RefCell`, `Option`, `MutexGuard`) down to the
    /// innermost interesting type. `Arc<Mutex<Tenant>>` → `Tenant`.
    pub fn peeled(&self) -> &Ty {
        const WRAPPERS: [&str; 8] = [
            "Arc",
            "Rc",
            "Box",
            "Mutex",
            "RwLock",
            "RefCell",
            "MutexGuard",
            "Option",
        ];
        let mut ty = self;
        let mut depth = 0;
        while WRAPPERS.contains(&ty.name.as_str()) && !ty.args.is_empty() && depth < 8 {
            // MutexGuard<'a, T>: the lifetime was stripped, args[0] is T.
            ty = &ty.args[0];
            depth += 1;
        }
        ty
    }
}

/// One parsed expression with the span of its head token.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A (possibly `::`-qualified) path, including bare identifiers.
    Path {
        /// Path segments; turbofish segments are dropped.
        segs: Vec<String>,
        /// Line of the first segment.
        line: u32,
        /// Column of the first segment.
        col: u32,
    },
    /// A literal (string, number, char, `true`/`false`).
    Lit {
        /// Token kind of the literal.
        kind: TokenKind,
        /// The literal's exact source text (quotes included for strings) —
        /// the taint rule reads inline format captures out of it.
        text: String,
        /// Line of the literal.
        line: u32,
        /// Column of the literal.
        col: u32,
    },
    /// `base.field` (also tuple indices: `pair.0`).
    Field {
        /// The receiver expression.
        base: Box<Expr>,
        /// Field name (or tuple index digits).
        name: String,
        /// Line of the field name.
        line: u32,
        /// Column of the field name.
        col: u32,
    },
    /// `callee(args…)` where the callee is an arbitrary expression
    /// (usually a [`Expr::Path`]).
    Call {
        /// The called expression.
        callee: Box<Expr>,
        /// Arguments, in order.
        args: Vec<Expr>,
        /// Line of the call head.
        line: u32,
        /// Column of the call head.
        col: u32,
    },
    /// `recv.method(args…)`.
    MethodCall {
        /// The receiver expression.
        recv: Box<Expr>,
        /// Method name.
        method: String,
        /// Turbofish type arguments (`collect::<BTreeMap<_, _>>`).
        turbofish: Vec<Ty>,
        /// Arguments, in order (receiver excluded).
        args: Vec<Expr>,
        /// Line of the method name.
        line: u32,
        /// Column of the method name.
        col: u32,
    },
    /// `name!(args…)` — arguments parsed best-effort as a comma list.
    Macro {
        /// Macro name (last path segment).
        name: String,
        /// Parsed arguments; unparseable tails become [`Expr::Opaque`].
        args: Vec<Expr>,
        /// Line of the macro name.
        line: u32,
        /// Column of the macro name.
        col: u32,
    },
    /// `|params| body` (also `move |…| …`).
    Closure {
        /// Parameter names bound by the closure.
        params: Vec<String>,
        /// The closure body.
        body: Box<Expr>,
        /// Line of the opening `|`.
        line: u32,
        /// Column of the opening `|`.
        col: u32,
    },
    /// `Type { field: expr, … }` struct literal.
    Struct {
        /// The struct's last path segment.
        ty: String,
        /// `(field, value)` pairs; shorthand fields repeat the name.
        fields: Vec<(String, Expr)>,
        /// Line of the type name.
        line: u32,
        /// Column of the type name.
        col: u32,
    },
    /// `base[index]` — kept distinct from [`Expr::Group`] so the type
    /// environment can resolve map/vec element types.
    Index {
        /// The indexed expression.
        base: Box<Expr>,
        /// The index expression.
        index: Box<Expr>,
    },
    /// A `{ … }` block in expression position.
    Block(Block),
    /// `if cond { … } else …` (includes `if let`, with the bound names).
    If {
        /// Names bound by an `if let` pattern (empty for plain `if`).
        bound: Vec<String>,
        /// The condition (or `if let` scrutinee).
        cond: Box<Expr>,
        /// The then-block.
        then: Block,
        /// The else arm (another `If` or a `Block`).
        els: Option<Box<Expr>>,
    },
    /// `match scrutinee { pat => body, … }`.
    Match {
        /// The matched expression.
        scrutinee: Box<Expr>,
        /// One entry per arm: the names its pattern binds, the optional
        /// guard, and the body.
        arms: Vec<MatchArm>,
    },
    /// `for pat in iter { … }`.
    For {
        /// Names bound by the loop pattern.
        bound: Vec<String>,
        /// The iterated expression.
        iter: Box<Expr>,
        /// The loop body.
        body: Block,
        /// Line of the `for`.
        line: u32,
    },
    /// `while cond { … }` / `while let … { … }` / `loop { … }`.
    While {
        /// Names bound by a `while let` pattern.
        bound: Vec<String>,
        /// The condition (a `true` literal for `loop`).
        cond: Box<Expr>,
        /// The loop body.
        body: Block,
    },
    /// `&expr` / `&mut expr` / `*expr` / `!expr` / `-expr`.
    Unary {
        /// The operand.
        inner: Box<Expr>,
    },
    /// A composite whose data flow is the union of its parts: binary
    /// operator chains, tuples, array literals, index expressions,
    /// range expressions.
    Group {
        /// The constituent expressions.
        parts: Vec<Expr>,
    },
    /// `target = value` (also `+=` and friends).
    Assign {
        /// The assignment target.
        target: Box<Expr>,
        /// The assigned value.
        value: Box<Expr>,
        /// Line of the operator.
        line: u32,
    },
    /// `return expr?` / `break expr?`.
    Return {
        /// The returned value, when present.
        value: Option<Box<Expr>>,
    },
    /// Something the parser could not model; consumed to a recovery
    /// point so surrounding analysis continues.
    Opaque {
        /// Line of the first unparsed token.
        line: u32,
        /// Column of the first unparsed token.
        col: u32,
    },
}

/// One `match` arm.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchArm {
    /// Names bound by the arm's pattern.
    pub bound: Vec<String>,
    /// The arm guard (`if …`), when present.
    pub guard: Option<Expr>,
    /// The arm body.
    pub body: Expr,
}

impl Expr {
    /// The source line of the expression's head token (best effort).
    pub fn line(&self) -> u32 {
        match self {
            Expr::Path { line, .. }
            | Expr::Lit { line, .. }
            | Expr::Field { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Closure { line, .. }
            | Expr::Struct { line, .. }
            | Expr::For { line, .. }
            | Expr::Assign { line, .. }
            | Expr::Opaque { line, .. } => *line,
            Expr::Block(b) => b.line,
            Expr::If { cond, .. }
            | Expr::Match {
                scrutinee: cond, ..
            } => cond.line(),
            Expr::While { cond, .. } => cond.line(),
            Expr::Unary { inner } => inner.line(),
            Expr::Index { base, .. } => base.line(),
            Expr::Group { parts } => parts.first().map_or(0, Expr::line),
            Expr::Return { value } => value.as_ref().map_or(0, |v| v.line()),
        }
    }
}

/// One statement of a block.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let pat(: ty)? (= init)? (else { … })?;`
    Let {
        /// Names bound by the pattern (the primary binding first).
        bound: Vec<String>,
        /// The annotated type, when written.
        ty: Option<Ty>,
        /// The initializer, when present.
        init: Option<Expr>,
        /// Line of the `let`.
        line: u32,
        /// Column of the `let`.
        col: u32,
    },
    /// An expression statement terminated by `;`.
    Semi(Expr),
    /// A trailing expression (the block's value).
    Expr(Expr),
    /// A nested item (fn, struct, …).
    Item(Item),
}

/// A `{ … }` block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
    /// Line of the opening brace.
    pub line: u32,
}

/// One function definition (free or inside an `impl`).
#[derive(Debug, Clone, PartialEq)]
pub struct FnDef {
    /// The function name.
    pub name: String,
    /// `(name, type)` per parameter. A `self` receiver appears as
    /// `("self", None)` — [`crate::symbols`] fills in the impl type.
    pub params: Vec<(String, Option<Ty>)>,
    /// The return type, when written.
    pub ret: Option<Ty>,
    /// The body; `None` for trait-method declarations and degraded fns.
    pub body: Option<Block>,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Whether the body failed to parse (analysis skips it; the file
    /// still counts as parsed).
    pub degraded: bool,
}

/// One top-level (or module-nested) item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A function definition.
    Fn(FnDef),
    /// `impl Type { … }` / `impl Trait for Type { … }`.
    Impl {
        /// Last path segment of the implemented type.
        ty: String,
        /// The methods.
        fns: Vec<FnDef>,
    },
    /// A struct with named fields.
    Struct {
        /// The struct name.
        name: String,
        /// `(field, type)` pairs.
        fields: Vec<(String, Ty)>,
    },
    /// An inline module.
    Mod {
        /// The module name.
        name: String,
        /// Whether the module (or an ancestor) is `#[cfg(test)]`.
        cfg_test: bool,
        /// The module's items.
        items: Vec<Item>,
    },
    /// Anything else (use, const, enum, trait, type alias, …).
    Other,
}

/// The parse result for one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// The items, in source order.
    pub items: Vec<Item>,
    /// Number of constructs that degraded to opaque/token mode.
    pub degraded: usize,
}

/// Parse one file's code tokens (comments already filtered out).
/// Never panics; unparseable constructs degrade and are counted.
pub fn parse_file(code: &[Token]) -> ParsedFile {
    let mut p = Parser {
        code,
        pos: 0,
        degraded: 0,
        fuel: code.len().saturating_mul(8) + 1024,
    };
    let items = p.parse_items(None);
    ParsedFile {
        items,
        degraded: p.degraded,
    }
}

struct Parser<'a> {
    code: &'a [Token],
    pos: usize,
    degraded: usize,
    /// Hard bound on total parsing work, so a pathological input can
    /// never loop: every consumed unit of fuel advances or aborts.
    fuel: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.code.get(self.pos)
    }

    fn peek_at(&self, ahead: usize) -> Option<&'a Token> {
        self.code.get(self.pos + ahead)
    }

    fn at_punct(&self, c: char) -> bool {
        self.peek().is_some_and(|t| t.is_punct(c))
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.is_ident(s))
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.at_punct(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Burn one unit of fuel; when exhausted, jump to the end of input
    /// so every loop terminates.
    fn spend_fuel(&mut self) -> bool {
        if self.fuel == 0 {
            self.pos = self.code.len();
            return false;
        }
        self.fuel -= 1;
        true
    }

    fn span(&self) -> (u32, u32) {
        self.peek().map_or((0, 0), |t| (t.line, t.col))
    }

    /// Skip a balanced delimiter group assuming the cursor is on the
    /// opening token. Returns false (cursor at end) when unbalanced.
    fn skip_balanced(&mut self, open: char, close: char) -> bool {
        let mut depth = 0i32;
        while let Some(tok) = self.peek() {
            if !self.spend_fuel() {
                return false;
            }
            if tok.is_punct(open) {
                depth += 1;
            } else if tok.is_punct(close) {
                depth -= 1;
                if depth == 0 {
                    self.pos += 1;
                    return true;
                }
            }
            self.pos += 1;
        }
        false
    }

    /// Skip `<…>` generics, counting only angle depth (the lexer emits
    /// `>` one character at a time, so `>>` closes two levels).
    fn skip_generics(&mut self) -> bool {
        let mut depth = 0i32;
        while let Some(tok) = self.peek() {
            if !self.spend_fuel() {
                return false;
            }
            match tok.punct() {
                Some('<') => depth += 1,
                Some('>') => {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += 1;
                        return true;
                    }
                }
                Some('(') => {
                    if !self.skip_balanced('(', ')') {
                        return false;
                    }
                    continue;
                }
                Some('[') => {
                    if !self.skip_balanced('[', ']') {
                        return false;
                    }
                    continue;
                }
                Some(';') | Some('{') | Some('}') => return false,
                _ => {}
            }
            self.pos += 1;
        }
        false
    }

    /// Skip one or more `#[…]` / `#![…]` attributes; returns whether any
    /// of them was `#[cfg(test)]`.
    fn skip_attrs(&mut self) -> bool {
        let mut cfg_test = false;
        while self.at_punct('#') {
            let start = self.pos;
            self.pos += 1;
            self.eat_punct('!');
            if !self.at_punct('[') {
                self.pos = start;
                break;
            }
            let attr_start = self.pos;
            if !self.skip_balanced('[', ']') {
                break;
            }
            let attr = &self.code[attr_start..self.pos];
            if attr.iter().any(|t| t.is_ident("cfg")) && attr.iter().any(|t| t.is_ident("test")) {
                cfg_test = true;
            }
        }
        cfg_test
    }

    /// Skip `pub`, `pub(crate)`, `pub(in …)`.
    fn skip_visibility(&mut self) {
        if self.eat_ident("pub") && self.at_punct('(') {
            self.skip_balanced('(', ')');
        }
    }

    // ----- items ---------------------------------------------------------

    /// Parse items until end of input (or the closing brace of the
    /// enclosing module when `closing` is set).
    fn parse_items(&mut self, closing: Option<char>) -> Vec<Item> {
        let mut items = Vec::new();
        while let Some(tok) = self.peek() {
            if !self.spend_fuel() {
                break;
            }
            if let Some(c) = closing {
                if tok.is_punct(c) {
                    break;
                }
            }
            match self.parse_item() {
                Some(item) => items.push(item),
                None => {
                    // Unknown leading token: skip it and continue.
                    self.pos += 1;
                }
            }
        }
        items
    }

    /// Parse one item; `None` when the cursor is not on anything
    /// item-shaped (caller advances).
    fn parse_item(&mut self) -> Option<Item> {
        let cfg_test = self.skip_attrs();
        self.skip_visibility();
        let tok = self.peek()?;
        if tok.kind != TokenKind::Ident {
            return None;
        }
        match tok.text.as_str() {
            "fn" => Some(Item::Fn(self.parse_fn())),
            "unsafe" | "async" | "const" if self.peek_at(1).is_some_and(|t| t.is_ident("fn")) => {
                self.pos += 1;
                Some(Item::Fn(self.parse_fn()))
            }
            "impl" => Some(self.parse_impl()),
            "struct" => Some(self.parse_struct()),
            "mod" => Some(self.parse_mod(cfg_test)),
            "use" | "extern" => {
                self.skip_to_semi_or_block();
                Some(Item::Other)
            }
            "const" | "static" | "type" => {
                self.skip_to_semi_or_block();
                Some(Item::Other)
            }
            "enum" | "trait" | "union" => {
                // Skip the header then the brace body.
                self.pos += 1;
                while let Some(t) = self.peek() {
                    if !self.spend_fuel() {
                        break;
                    }
                    match t.punct() {
                        Some('{') => {
                            self.skip_balanced('{', '}');
                            break;
                        }
                        Some(';') => {
                            self.pos += 1;
                            break;
                        }
                        Some('<') => {
                            if !self.skip_generics() {
                                break;
                            }
                            continue;
                        }
                        _ => self.pos += 1,
                    }
                }
                Some(Item::Other)
            }
            "macro_rules" => {
                self.skip_to_semi_or_block();
                Some(Item::Other)
            }
            _ => None,
        }
    }

    /// Skip forward past the next top-level `;` or balanced `{…}`.
    fn skip_to_semi_or_block(&mut self) {
        while let Some(tok) = self.peek() {
            if !self.spend_fuel() {
                return;
            }
            match tok.punct() {
                Some(';') => {
                    self.pos += 1;
                    return;
                }
                Some('{') => {
                    self.skip_balanced('{', '}');
                    return;
                }
                Some('}') => return,
                Some('(') => {
                    self.skip_balanced('(', ')');
                }
                Some('[') => {
                    self.skip_balanced('[', ']');
                }
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    /// Parse `fn name(params) -> Ret { body }`; cursor on `fn`.
    fn parse_fn(&mut self) -> FnDef {
        let line = self.peek().map_or(0, |t| t.line);
        self.eat_ident("fn");
        let name = match self.peek() {
            Some(t) if t.kind == TokenKind::Ident => {
                let n = t.text.clone();
                self.pos += 1;
                n
            }
            _ => String::new(),
        };
        if self.at_punct('<') {
            self.skip_generics();
        }
        let mut def = FnDef {
            name,
            params: Vec::new(),
            ret: None,
            body: None,
            line,
            degraded: false,
        };
        if self.at_punct('(') {
            def.params = self.parse_params();
        } else {
            def.degraded = true;
            self.degraded += 1;
        }
        // `-> Ret`
        if self.at_punct('-') && self.peek_at(1).is_some_and(|t| t.is_punct('>')) {
            self.pos += 2;
            def.ret = self.parse_type();
        }
        // where-clause: skip to the body or `;`.
        if self.at_ident("where") {
            while let Some(tok) = self.peek() {
                if !self.spend_fuel() {
                    break;
                }
                match tok.punct() {
                    Some('{') | Some(';') => break,
                    Some('<') => {
                        if !self.skip_generics() {
                            break;
                        }
                    }
                    Some('(') => {
                        if !self.skip_balanced('(', ')') {
                            break;
                        }
                    }
                    _ => self.pos += 1,
                }
            }
        }
        if self.eat_punct(';') {
            return def; // declaration only (trait method)
        }
        if self.at_punct('{') {
            let body_start = self.pos;
            let body = self.parse_block();
            match body {
                Some(b) => def.body = Some(b),
                None => {
                    def.degraded = true;
                    self.degraded += 1;
                    self.pos = body_start;
                    self.skip_balanced('{', '}');
                }
            }
        } else {
            def.degraded = true;
            self.degraded += 1;
        }
        def
    }

    /// Parse a parenthesized parameter list; cursor on `(`.
    fn parse_params(&mut self) -> Vec<(String, Option<Ty>)> {
        let close = match close_index(self.code, self.pos, '(', ')') {
            Some(c) => c,
            None => {
                self.pos = self.code.len();
                return Vec::new();
            }
        };
        self.pos += 1; // consume `(`
        let mut params = Vec::new();
        while self.pos < close {
            if !self.spend_fuel() {
                break;
            }
            // One parameter: pattern [: type] up to a top-level comma.
            let arg_end = top_level_comma(self.code, self.pos, close).unwrap_or(close);
            let slice_start = self.pos;
            // `self` receiver in any of its forms.
            let recv = self.code[slice_start..arg_end]
                .iter()
                .take(3)
                .find(|t| t.is_ident("self"));
            if recv.is_some()
                && !self.code[slice_start..arg_end]
                    .iter()
                    .any(|t| t.is_punct(':'))
            {
                params.push(("self".to_string(), None));
            } else {
                // name: Ty  (skip `mut`, `ref`, `_`-prefixed bindings kept)
                let mut k = slice_start;
                while k < arg_end
                    && (self.code[k].is_ident("mut")
                        || self.code[k].is_ident("ref")
                        || self.code[k].is_punct('&'))
                {
                    k += 1;
                }
                let name = self.code.get(k).filter(|t| t.kind == TokenKind::Ident);
                let colon = (k..arg_end).find(|&i| {
                    self.code[i].is_punct(':')
                        && !self.code.get(i + 1).is_some_and(|t| t.is_punct(':'))
                        && !self
                            .code
                            .get(i.wrapping_sub(1))
                            .is_some_and(|t| t.is_punct(':'))
                });
                if let (Some(name), Some(colon)) = (name, colon) {
                    self.pos = colon + 1;
                    let ty = self.parse_type_until(arg_end);
                    params.push((name.text.clone(), ty));
                }
            }
            self.pos = arg_end;
            if self.pos < close {
                self.pos += 1; // the comma
            }
        }
        self.pos = close + 1;
        params
    }

    // ----- types ---------------------------------------------------------

    /// Parse a type starting at the cursor, stopping at natural type
    /// boundaries. `None` when nothing type-shaped is present.
    fn parse_type(&mut self) -> Option<Ty> {
        self.parse_type_until(self.code.len())
    }

    fn parse_type_until(&mut self, limit: usize) -> Option<Ty> {
        // Strip leading modifiers.
        loop {
            if self.pos >= limit {
                return None;
            }
            let tok = self.peek()?;
            if tok.is_punct('&')
                || tok.kind == TokenKind::Lifetime
                || tok.is_ident("mut")
                || tok.is_ident("dyn")
                || tok.is_ident("impl")
            {
                self.pos += 1;
                continue;
            }
            break;
        }
        let tok = self.peek()?;
        // Tuple type.
        if tok.is_punct('(') {
            let close = close_index(self.code, self.pos, '(', ')')?;
            let close = close.min(limit.max(self.pos));
            self.pos += 1;
            let mut args = Vec::new();
            while self.pos < close {
                if !self.spend_fuel() {
                    break;
                }
                let elem_end = top_level_comma(self.code, self.pos, close).unwrap_or(close);
                if let Some(t) = self.parse_type_until(elem_end) {
                    args.push(t);
                }
                self.pos = elem_end.min(close);
                if self.pos < close {
                    self.pos += 1;
                }
            }
            self.pos = close + 1;
            return Some(Ty {
                name: "(tuple)".to_string(),
                args,
            });
        }
        // Slice/array type.
        if tok.is_punct('[') {
            let close = close_index(self.code, self.pos, '[', ']')?;
            self.pos += 1;
            let inner = self.parse_type_until(close);
            self.pos = close + 1;
            return Some(Ty {
                name: "[slice]".to_string(),
                args: inner.into_iter().collect(),
            });
        }
        if tok.kind != TokenKind::Ident {
            return None;
        }
        // Path: a::b::C<…> — keep the last segment.
        let mut name = String::new();
        while self.pos < limit {
            if !self.spend_fuel() {
                break;
            }
            let Some(tok) = self.peek() else { break };
            if tok.kind == TokenKind::Ident {
                name = tok.text.clone();
                self.pos += 1;
                // `::` continues the path.
                if self.at_punct(':') && self.peek_at(1).is_some_and(|t| t.is_punct(':')) {
                    self.pos += 2;
                    continue;
                }
                break;
            }
            break;
        }
        if name.is_empty() {
            return None;
        }
        let mut ty = Ty::simple(name);
        // Generic arguments.
        if self.pos < limit && self.at_punct('<') {
            let open = self.pos;
            let close = angle_close_index(self.code, open);
            if let Some(close) = close {
                self.pos = open + 1;
                while self.pos < close {
                    if !self.spend_fuel() {
                        break;
                    }
                    let arg_end =
                        top_level_comma_angles(self.code, self.pos, close).unwrap_or(close);
                    if let Some(t) = self.parse_type_until(arg_end) {
                        ty.args.push(t);
                    }
                    self.pos = arg_end.min(close);
                    if self.pos < close {
                        self.pos += 1;
                    }
                }
                self.pos = close + 1;
            }
        }
        Some(ty)
    }

    /// Parse `impl [Trait for] Type { fns… }`; cursor on `impl`.
    fn parse_impl(&mut self) -> Item {
        self.eat_ident("impl");
        if self.at_punct('<') {
            self.skip_generics();
        }
        let first = self.parse_type();
        // `impl Trait for Type`.
        let ty = if self.eat_ident("for") {
            self.parse_type()
        } else {
            first
        };
        // where clause / leftover path noise up to the body.
        while let Some(tok) = self.peek() {
            if !self.spend_fuel() {
                break;
            }
            match tok.punct() {
                Some('{') => break,
                Some(';') => {
                    self.pos += 1;
                    return Item::Other;
                }
                Some('<') => {
                    if !self.skip_generics() {
                        return Item::Other;
                    }
                }
                Some('(') => {
                    if !self.skip_balanced('(', ')') {
                        return Item::Other;
                    }
                }
                _ => self.pos += 1,
            }
        }
        let ty_name = ty.map_or_else(String::new, |t| t.name);
        let Some(close) = close_index(self.code, self.pos, '{', '}') else {
            self.pos = self.code.len();
            return Item::Other;
        };
        self.pos += 1;
        let mut fns = Vec::new();
        while self.pos < close {
            if !self.spend_fuel() {
                break;
            }
            self.skip_attrs();
            self.skip_visibility();
            let at_fn = self.at_ident("fn")
                || ((self.at_ident("unsafe") || self.at_ident("async") || self.at_ident("const"))
                    && self.peek_at(1).is_some_and(|t| t.is_ident("fn")));
            if at_fn {
                if !self.at_ident("fn") {
                    self.pos += 1;
                }
                fns.push(self.parse_fn());
            } else if self.pos < close {
                // const/type items inside the impl: skip.
                self.skip_to_semi_or_block();
                if self.pos >= close {
                    break;
                }
            }
        }
        self.pos = close + 1;
        Item::Impl { ty: ty_name, fns }
    }

    /// Parse `struct Name { field: Ty, … }` (unit/tuple structs become
    /// fieldless); cursor on `struct`.
    fn parse_struct(&mut self) -> Item {
        self.eat_ident("struct");
        let name = match self.peek() {
            Some(t) if t.kind == TokenKind::Ident => {
                let n = t.text.clone();
                self.pos += 1;
                n
            }
            _ => String::new(),
        };
        if self.at_punct('<') {
            self.skip_generics();
        }
        if self.at_ident("where") {
            while let Some(tok) = self.peek() {
                if !self.spend_fuel() {
                    break;
                }
                match tok.punct() {
                    Some('{') | Some(';') => break,
                    _ => self.pos += 1,
                }
            }
        }
        // Tuple struct or unit struct.
        if self.at_punct('(') {
            self.skip_balanced('(', ')');
            self.eat_punct(';');
            return Item::Struct {
                name,
                fields: Vec::new(),
            };
        }
        if self.eat_punct(';') {
            return Item::Struct {
                name,
                fields: Vec::new(),
            };
        }
        let Some(close) = close_index(self.code, self.pos, '{', '}') else {
            self.pos = self.code.len();
            return Item::Struct {
                name,
                fields: Vec::new(),
            };
        };
        self.pos += 1;
        let mut fields = Vec::new();
        while self.pos < close {
            if !self.spend_fuel() {
                break;
            }
            self.skip_attrs();
            self.skip_visibility();
            let field_end = top_level_comma(self.code, self.pos, close).unwrap_or(close);
            let name_tok = self.peek().filter(|t| t.kind == TokenKind::Ident).cloned();
            let colon = (self.pos..field_end).find(|&i| {
                self.code[i].is_punct(':') && !self.code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            });
            if let (Some(name_tok), Some(colon)) = (name_tok, colon) {
                self.pos = colon + 1;
                if let Some(ty) = self.parse_type_until(field_end) {
                    fields.push((name_tok.text, ty));
                }
            }
            self.pos = field_end.min(close);
            if self.pos < close {
                self.pos += 1;
            }
        }
        self.pos = close + 1;
        Item::Struct { name, fields }
    }

    /// Parse `mod name { items… }` / `mod name;`; cursor on `mod`.
    fn parse_mod(&mut self, cfg_test: bool) -> Item {
        self.eat_ident("mod");
        let name = match self.peek() {
            Some(t) if t.kind == TokenKind::Ident => {
                let n = t.text.clone();
                self.pos += 1;
                n
            }
            _ => String::new(),
        };
        if self.eat_punct(';') {
            return Item::Other;
        }
        if !self.eat_punct('{') {
            return Item::Other;
        }
        let items = self.parse_items(Some('}'));
        self.eat_punct('}');
        Item::Mod {
            name,
            cfg_test,
            items,
        }
    }

    // ----- statements and expressions ------------------------------------

    /// Parse a `{ … }` block; cursor on `{`. `None` on malformed input
    /// (cursor position is then unspecified — callers reset it).
    fn parse_block(&mut self) -> Option<Block> {
        let line = self.peek().map_or(0, |t| t.line);
        let close = close_index(self.code, self.pos, '{', '}')?;
        self.pos += 1;
        let mut stmts = Vec::new();
        while self.pos < close {
            if !self.spend_fuel() {
                break;
            }
            self.skip_attrs();
            if self.pos >= close {
                break;
            }
            if self.eat_punct(';') {
                continue;
            }
            // Nested items keep the symbol model complete.
            let item_start = self.pos;
            if self.looks_like_item() {
                if let Some(item) = self.parse_item() {
                    stmts.push(Stmt::Item(item));
                    continue;
                }
                self.pos = item_start;
            }
            if self.at_ident("let") {
                stmts.push(self.parse_let(close));
                continue;
            }
            let expr = self.parse_expr_recovering(close);
            if self.pos < close && self.eat_punct(';') {
                stmts.push(Stmt::Semi(expr));
            } else if self.pos >= close {
                stmts.push(Stmt::Expr(expr));
            } else {
                // Block-ended expression (if/match/loop used as a
                // statement) — no semicolon required.
                stmts.push(Stmt::Semi(expr));
            }
        }
        self.pos = close + 1;
        Some(Block { stmts, line })
    }

    fn looks_like_item(&self) -> bool {
        let Some(tok) = self.peek() else { return false };
        if tok.kind != TokenKind::Ident {
            // Not even `#[…]` attributes: statement attributes are
            // handled by skip_attrs before this check runs.
            return false;
        }
        matches!(
            tok.text.as_str(),
            "fn" | "struct" | "impl" | "mod" | "use" | "enum" | "trait" | "macro_rules"
        ) || (tok.is_ident("pub"))
    }

    /// Parse `let pat (: ty)? (= expr)? (else { … })? ;` within `limit`.
    fn parse_let(&mut self, limit: usize) -> Stmt {
        let (line, col) = self.span();
        self.eat_ident("let");
        // Pattern tokens up to a top-level `:` (type), `=` (init) or `;`.
        let pat_start = self.pos;
        let mut depth = 0i32;
        let mut colon: Option<usize> = None;
        let mut eq: Option<usize> = None;
        let mut k = self.pos;
        while k < limit {
            let t = &self.code[k];
            match t.punct() {
                Some('(') | Some('[') | Some('{') | Some('<') => depth += 1,
                Some(')') | Some(']') | Some('}') | Some('>') => depth -= 1,
                Some(':')
                    if depth == 0
                        && colon.is_none()
                        && !self.code.get(k + 1).is_some_and(|t| t.is_punct(':'))
                        && !self
                            .code
                            .get(k.wrapping_sub(1))
                            .is_some_and(|t| t.is_punct(':')) =>
                {
                    colon = Some(k);
                }
                Some('=')
                    if depth == 0 && !self.code.get(k + 1).is_some_and(|t| t.is_punct('=')) =>
                {
                    eq = Some(k);
                    break;
                }
                Some(';') if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        let pat_end = colon.or(eq).unwrap_or(k);
        let bound = pattern_bindings(&self.code[pat_start..pat_end]);
        let mut ty = None;
        if let Some(c) = colon.filter(|c| eq.is_none_or(|e| *c < e)) {
            self.pos = c + 1;
            ty = self.parse_type_until(eq.unwrap_or(k));
        }
        let mut init = None;
        if let Some(e) = eq {
            self.pos = e + 1;
            init = Some(self.parse_expr_recovering(limit));
        } else {
            self.pos = k;
        }
        // `let … else { … }`.
        if self.at_ident("else") {
            self.pos += 1;
            if self.at_punct('{') {
                let start = self.pos;
                if self.parse_block().is_none() {
                    self.pos = start;
                    self.skip_balanced('{', '}');
                }
            }
        }
        self.eat_punct(';');
        Stmt::Let {
            bound,
            ty,
            init,
            line,
            col,
        }
    }

    /// Parse an expression; on failure produce [`Expr::Opaque`] and skip
    /// to the next top-level `;` (or `limit`).
    fn parse_expr_recovering(&mut self, limit: usize) -> Expr {
        let (line, col) = self.span();
        let start = self.pos;
        match self.parse_expr(limit, true) {
            Some(e) => e,
            None => {
                self.degraded += 1;
                self.pos = start.max(self.pos);
                // Recover: skip to `;` at depth 0 or to limit.
                let mut depth = 0i32;
                while self.pos < limit {
                    if !self.spend_fuel() {
                        break;
                    }
                    let Some(t) = self.peek() else { break };
                    match t.punct() {
                        Some('(') | Some('[') | Some('{') => depth += 1,
                        Some(')') | Some(']') | Some('}') => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        Some(';') if depth == 0 => break,
                        _ => {}
                    }
                    self.pos += 1;
                }
                Expr::Opaque { line, col }
            }
        }
    }

    /// Parse one expression (binary-operator level). `structs_ok` is
    /// false in `if`/`while`/`match`/`for` head position where `X {`
    /// starts the block, not a struct literal.
    fn parse_expr(&mut self, limit: usize, structs_ok: bool) -> Option<Expr> {
        if !self.spend_fuel() {
            return None;
        }
        let first = self.parse_prefix(limit, structs_ok)?;
        let mut parts = vec![first];
        // Fold binary operators / ranges / casts into a Group.
        loop {
            if self.pos >= limit || !self.spend_fuel() {
                break;
            }
            let Some(tok) = self.peek() else { break };
            // Assignment: `=`, `+=`, … (lowest precedence, right-assoc).
            let is_plain_eq = tok.is_punct('=')
                && !self.peek_at(1).is_some_and(|t| t.is_punct('='))
                && !matches!(
                    parts.last(),
                    Some(Expr::Lit { .. }) // `1 = x` is nonsense; be safe
                );
            let is_compound_eq = matches!(
                tok.punct(),
                Some('+')
                    | Some('-')
                    | Some('*')
                    | Some('/')
                    | Some('%')
                    | Some('^')
                    | Some('&')
                    | Some('|')
            ) && self.peek_at(1).is_some_and(|t| t.is_punct('='))
                && !self.peek_at(2).is_some_and(|t| t.is_punct('='));
            if is_plain_eq || is_compound_eq {
                let line = tok.line;
                self.pos += if is_plain_eq { 1 } else { 2 };
                let value = self.parse_expr(limit, structs_ok)?;
                let target = group_or_single(std::mem::take(&mut parts));
                return Some(Expr::Assign {
                    target: Box::new(target),
                    value: Box::new(value),
                    line,
                });
            }
            // `as Type` cast.
            if tok.is_ident("as") {
                self.pos += 1;
                let _ = self.parse_type_until(limit);
                continue;
            }
            let op_len = binary_op_len(self.code, self.pos);
            if op_len == 0 {
                break;
            }
            self.pos += op_len;
            // Range with open end (`start..`): no right operand.
            if self.pos >= limit
                || self.peek().is_none_or(|t| {
                    matches!(
                        t.punct(),
                        Some(')') | Some(']') | Some('}') | Some(';') | Some(',')
                    )
                })
            {
                break;
            }
            let rhs = self.parse_prefix(limit, structs_ok)?;
            parts.push(rhs);
        }
        Some(group_or_single(parts))
    }

    /// Prefix operators, closures, and control-flow expressions.
    fn parse_prefix(&mut self, limit: usize, structs_ok: bool) -> Option<Expr> {
        if self.pos >= limit || !self.spend_fuel() {
            return None;
        }
        let (line, col) = self.span();
        let tok = self.peek()?;
        // Prefix operators.
        if tok.is_punct('&') || tok.is_punct('*') || tok.is_punct('!') || tok.is_punct('-') {
            self.pos += 1;
            self.eat_ident("mut");
            let inner = self.parse_prefix(limit, structs_ok)?;
            return Some(Expr::Unary {
                inner: Box::new(inner),
            });
        }
        // Closures.
        if tok.is_ident("move") && self.peek_at(1).is_some_and(|t| t.is_punct('|')) {
            self.pos += 1;
            return self.parse_closure(limit);
        }
        if tok.is_punct('|') {
            return self.parse_closure(limit);
        }
        if tok.kind == TokenKind::Ident {
            match tok.text.as_str() {
                "if" => return self.parse_if(limit),
                "match" => return self.parse_match(limit),
                "for" => return self.parse_for(limit),
                "while" => return self.parse_while(limit),
                "loop" => {
                    self.pos += 1;
                    let body = self.parse_block()?;
                    return Some(Expr::While {
                        bound: Vec::new(),
                        cond: Box::new(Expr::Lit {
                            kind: TokenKind::Ident,
                            text: "true".to_string(),
                            line,
                            col,
                        }),
                        body,
                    });
                }
                "return" | "break" => {
                    self.pos += 1;
                    let stops = self.peek().is_none_or(|t| {
                        matches!(
                            t.punct(),
                            Some(';') | Some(')') | Some(']') | Some('}') | Some(',')
                        )
                    });
                    let value = if stops || self.pos >= limit {
                        None
                    } else {
                        self.parse_expr(limit, structs_ok).map(Box::new)
                    };
                    return Some(Expr::Return { value });
                }
                "continue" => {
                    self.pos += 1;
                    return Some(Expr::Return { value: None });
                }
                "unsafe" if self.peek_at(1).is_some_and(|t| t.is_punct('{')) => {
                    self.pos += 1;
                    let block = self.parse_block()?;
                    return Some(Expr::Block(block));
                }
                _ => {}
            }
        }
        self.parse_postfix(limit, structs_ok)
    }

    /// Parse `|params| body`.
    fn parse_closure(&mut self, limit: usize) -> Option<Expr> {
        let (line, col) = self.span();
        // `||` — empty parameter list (two `|` puncts).
        let mut params = Vec::new();
        self.eat_punct('|');
        if !self.eat_punct('|') {
            // Parameters until the closing `|`.
            let mut depth = 0i32;
            let mut end = self.pos;
            while end < limit {
                let t = &self.code[end];
                match t.punct() {
                    Some('(') | Some('[') | Some('<') => depth += 1,
                    Some(')') | Some(']') | Some('>') => depth -= 1,
                    Some('|') if depth == 0 => break,
                    _ => {}
                }
                end += 1;
            }
            params = pattern_bindings(&self.code[self.pos..end]);
            self.pos = end;
            self.eat_punct('|');
        }
        // Optional `-> Ty` before a braced body.
        if self.at_punct('-') && self.peek_at(1).is_some_and(|t| t.is_punct('>')) {
            self.pos += 2;
            let _ = self.parse_type();
        }
        let body = self.parse_expr(limit, true)?;
        Some(Expr::Closure {
            params,
            body: Box::new(body),
            line,
            col,
        })
    }

    fn parse_if(&mut self, limit: usize) -> Option<Expr> {
        self.eat_ident("if");
        let mut bound = Vec::new();
        if self.eat_ident("let") {
            // Pattern up to the top-level `=`.
            let start = self.pos;
            let mut depth = 0i32;
            while self.pos < limit {
                if !self.spend_fuel() {
                    return None;
                }
                let t = self.peek()?;
                match t.punct() {
                    Some('(') | Some('[') | Some('<') => depth += 1,
                    Some(')') | Some(']') | Some('>') => depth -= 1,
                    Some('=')
                        if depth == 0 && !self.peek_at(1).is_some_and(|t| t.is_punct('=')) =>
                    {
                        break;
                    }
                    Some('{') if depth == 0 => return None,
                    _ => {}
                }
                self.pos += 1;
            }
            bound = pattern_bindings(&self.code[start..self.pos]);
            self.eat_punct('=');
        }
        let cond = self.parse_expr(limit, false)?;
        let then = self.parse_block()?;
        let mut els = None;
        if self.eat_ident("else") {
            if self.at_ident("if") {
                els = Some(Box::new(self.parse_if(limit)?));
            } else if self.at_punct('{') {
                els = Some(Box::new(Expr::Block(self.parse_block()?)));
            }
        }
        Some(Expr::If {
            bound,
            cond: Box::new(cond),
            then,
            els,
        })
    }

    fn parse_match(&mut self, limit: usize) -> Option<Expr> {
        self.eat_ident("match");
        let scrutinee = self.parse_expr(limit, false)?;
        let close = close_index(self.code, self.pos, '{', '}')?;
        self.pos += 1;
        let mut arms = Vec::new();
        while self.pos < close {
            if !self.spend_fuel() {
                break;
            }
            self.skip_attrs();
            if self.pos >= close {
                break;
            }
            // Pattern tokens up to the top-level `=>`; an optional
            // `if guard` splits off the tail.
            let pat_start = self.pos;
            let mut depth = 0i32;
            let mut arrow = None;
            let mut guard_at = None;
            let mut k = self.pos;
            while k < close {
                let t = &self.code[k];
                match t.punct() {
                    Some('(') | Some('[') | Some('{') => depth += 1,
                    Some(')') | Some(']') | Some('}') => depth -= 1,
                    Some('=')
                        if depth == 0 && self.code.get(k + 1).is_some_and(|t| t.is_punct('>')) =>
                    {
                        arrow = Some(k);
                        break;
                    }
                    _ => {
                        if depth == 0 && t.is_ident("if") && guard_at.is_none() && k > pat_start {
                            guard_at = Some(k);
                        }
                    }
                }
                k += 1;
            }
            let Some(arrow) = arrow else { break };
            let pat_end = guard_at.unwrap_or(arrow);
            let bound = pattern_bindings(&self.code[pat_start..pat_end]);
            let mut guard = None;
            if let Some(g) = guard_at {
                self.pos = g + 1;
                guard = self.parse_expr(arrow, true);
            }
            self.pos = arrow + 2;
            let body = if self.at_punct('{') {
                match self.parse_block() {
                    Some(b) => Expr::Block(b),
                    None => {
                        let (line, col) = self.span();
                        self.degraded += 1;
                        self.pos = close;
                        Expr::Opaque { line, col }
                    }
                }
            } else {
                // Up to the next top-level comma.
                let body_end = top_level_comma(self.code, self.pos, close).unwrap_or(close);
                let e = self.parse_expr_recovering(body_end);
                self.pos = self.pos.max(body_end.min(close));
                e
            };
            arms.push(MatchArm { bound, guard, body });
            if self.pos < close && self.at_punct(',') {
                self.pos += 1;
            }
        }
        self.pos = close + 1;
        Some(Expr::Match {
            scrutinee: Box::new(scrutinee),
            arms,
        })
    }

    fn parse_for(&mut self, limit: usize) -> Option<Expr> {
        let line = self.peek().map_or(0, |t| t.line);
        self.eat_ident("for");
        let start = self.pos;
        // Pattern up to the top-level `in`.
        let mut depth = 0i32;
        while self.pos < limit {
            if !self.spend_fuel() {
                return None;
            }
            let t = self.peek()?;
            match t.punct() {
                Some('(') | Some('[') => depth += 1,
                Some(')') | Some(']') => depth -= 1,
                Some('{') if depth == 0 => return None,
                _ => {
                    if depth == 0 && t.is_ident("in") {
                        break;
                    }
                }
            }
            self.pos += 1;
        }
        let bound = pattern_bindings(&self.code[start..self.pos]);
        if !self.eat_ident("in") {
            return None;
        }
        let iter = self.parse_expr(limit, false)?;
        let body = self.parse_block()?;
        Some(Expr::For {
            bound,
            iter: Box::new(iter),
            body,
            line,
        })
    }

    fn parse_while(&mut self, limit: usize) -> Option<Expr> {
        self.eat_ident("while");
        let mut bound = Vec::new();
        if self.eat_ident("let") {
            let start = self.pos;
            let mut depth = 0i32;
            while self.pos < limit {
                if !self.spend_fuel() {
                    return None;
                }
                let t = self.peek()?;
                match t.punct() {
                    Some('(') | Some('[') | Some('<') => depth += 1,
                    Some(')') | Some(']') | Some('>') => depth -= 1,
                    Some('=')
                        if depth == 0 && !self.peek_at(1).is_some_and(|t| t.is_punct('=')) =>
                    {
                        break;
                    }
                    Some('{') if depth == 0 => return None,
                    _ => {}
                }
                self.pos += 1;
            }
            bound = pattern_bindings(&self.code[start..self.pos]);
            self.eat_punct('=');
        }
        let cond = self.parse_expr(limit, false)?;
        let body = self.parse_block()?;
        Some(Expr::While {
            bound,
            cond: Box::new(cond),
            body,
        })
    }

    /// Primary expression plus postfix chain (`.field`, `.method(…)`,
    /// calls, indexing, `?`).
    fn parse_postfix(&mut self, limit: usize, structs_ok: bool) -> Option<Expr> {
        let mut expr = self.parse_primary(limit, structs_ok)?;
        loop {
            if self.pos >= limit || !self.spend_fuel() {
                break;
            }
            let Some(tok) = self.peek() else { break };
            match tok.punct() {
                Some('?') => {
                    self.pos += 1;
                }
                Some('.') => {
                    let Some(next) = self.peek_at(1) else { break };
                    // `..` range — not a field access.
                    if next.is_punct('.') {
                        break;
                    }
                    let (line, col) = (next.line, next.col);
                    if next.kind == TokenKind::Number {
                        self.pos += 2;
                        expr = Expr::Field {
                            base: Box::new(expr),
                            name: next.text.clone(),
                            line,
                            col,
                        };
                        continue;
                    }
                    if next.kind != TokenKind::Ident {
                        break;
                    }
                    let name = next.text.clone();
                    self.pos += 2;
                    // Turbofish.
                    let mut turbofish = Vec::new();
                    if self.at_punct(':')
                        && self.peek_at(1).is_some_and(|t| t.is_punct(':'))
                        && self.peek_at(2).is_some_and(|t| t.is_punct('<'))
                    {
                        self.pos += 2;
                        let open = self.pos;
                        if let Some(close) = angle_close_index(self.code, open) {
                            self.pos = open + 1;
                            while self.pos < close {
                                if !self.spend_fuel() {
                                    break;
                                }
                                let arg_end = top_level_comma_angles(self.code, self.pos, close)
                                    .unwrap_or(close);
                                if let Some(t) = self.parse_type_until(arg_end) {
                                    turbofish.push(t);
                                }
                                self.pos = arg_end.min(close);
                                if self.pos < close {
                                    self.pos += 1;
                                }
                            }
                            self.pos = close + 1;
                        }
                    }
                    if self.at_punct('(') {
                        let args = self.parse_call_args(limit)?;
                        expr = Expr::MethodCall {
                            recv: Box::new(expr),
                            method: name,
                            turbofish,
                            args,
                            line,
                            col,
                        };
                    } else {
                        expr = Expr::Field {
                            base: Box::new(expr),
                            name,
                            line,
                            col,
                        };
                    }
                }
                Some('(') => {
                    let (line, col) = match &expr {
                        Expr::Path { line, col, .. } => (*line, *col),
                        _ => self.span(),
                    };
                    let args = self.parse_call_args(limit)?;
                    expr = Expr::Call {
                        callee: Box::new(expr),
                        args,
                        line,
                        col,
                    };
                }
                Some('[') => {
                    let close = close_index(self.code, self.pos, '[', ']')?;
                    self.pos += 1;
                    let idx = self.parse_expr_recovering(close);
                    self.pos = close + 1;
                    expr = Expr::Index {
                        base: Box::new(expr),
                        index: Box::new(idx),
                    };
                }
                _ => break,
            }
        }
        Some(expr)
    }

    /// Parse `(arg, …)`; cursor on `(`.
    fn parse_call_args(&mut self, _limit: usize) -> Option<Vec<Expr>> {
        let close = close_index(self.code, self.pos, '(', ')')?;
        self.pos += 1;
        let mut args = Vec::new();
        while self.pos < close {
            if !self.spend_fuel() {
                break;
            }
            let arg_end = top_level_comma(self.code, self.pos, close).unwrap_or(close);
            if arg_end > self.pos {
                args.push(self.parse_expr_recovering(arg_end));
            }
            self.pos = self.pos.max(arg_end.min(close));
            if self.pos < close {
                self.pos += 1;
            }
        }
        self.pos = close + 1;
        Some(args)
    }

    /// Literals, paths, macro calls, struct literals, parens, arrays,
    /// blocks.
    fn parse_primary(&mut self, limit: usize, structs_ok: bool) -> Option<Expr> {
        if self.pos >= limit {
            return None;
        }
        let tok = self.peek()?;
        let (line, col) = (tok.line, tok.col);
        match tok.kind {
            TokenKind::Str | TokenKind::Number | TokenKind::Char | TokenKind::Lifetime => {
                let kind = tok.kind;
                let text = tok.text.clone();
                self.pos += 1;
                // Lifetimes appear as loop labels: `'outer: loop { … }`.
                if kind == TokenKind::Lifetime && self.eat_punct(':') {
                    return self.parse_prefix(limit, structs_ok);
                }
                Some(Expr::Lit {
                    kind,
                    text,
                    line,
                    col,
                })
            }
            TokenKind::Punct => match tok.punct()? {
                '(' => {
                    let close = close_index(self.code, self.pos, '(', ')')?;
                    self.pos += 1;
                    let mut parts = Vec::new();
                    while self.pos < close {
                        if !self.spend_fuel() {
                            break;
                        }
                        let elem_end = top_level_comma(self.code, self.pos, close).unwrap_or(close);
                        if elem_end > self.pos {
                            parts.push(self.parse_expr_recovering(elem_end));
                        }
                        self.pos = self.pos.max(elem_end.min(close));
                        if self.pos < close {
                            self.pos += 1;
                        }
                    }
                    self.pos = close + 1;
                    Some(group_or_single(parts))
                }
                '[' => {
                    let close = close_index(self.code, self.pos, '[', ']')?;
                    self.pos += 1;
                    let mut parts = Vec::new();
                    while self.pos < close {
                        if !self.spend_fuel() {
                            break;
                        }
                        // `[expr; len]` or `[a, b, c]` — split on either.
                        let elem_end = (self.pos..close)
                            .find(|&i| self.code[i].is_punct(',') || self.code[i].is_punct(';'))
                            .filter(|&i| depth_at(self.code, self.pos, i) == 0)
                            .unwrap_or(close);
                        if elem_end > self.pos {
                            parts.push(self.parse_expr_recovering(elem_end));
                        }
                        self.pos = self.pos.max(elem_end.min(close));
                        if self.pos < close {
                            self.pos += 1;
                        }
                    }
                    self.pos = close + 1;
                    Some(Expr::Group { parts })
                }
                '{' => {
                    let start = self.pos;
                    match self.parse_block() {
                        Some(b) => Some(Expr::Block(b)),
                        None => {
                            self.pos = start;
                            self.skip_balanced('{', '}');
                            self.degraded += 1;
                            Some(Expr::Opaque { line, col })
                        }
                    }
                }
                '.' if self.peek_at(1).is_some_and(|t| t.is_punct('.')) => {
                    // Leading range `..end` / `..`.
                    self.pos += 2;
                    self.eat_punct('=');
                    let end = self.parse_prefix(limit, structs_ok);
                    Some(Expr::Group {
                        parts: end.into_iter().collect(),
                    })
                }
                _ => None,
            },
            TokenKind::Ident => {
                if tok.text == "true" || tok.text == "false" {
                    let text = tok.text.clone();
                    self.pos += 1;
                    return Some(Expr::Lit {
                        kind: TokenKind::Ident,
                        text,
                        line,
                        col,
                    });
                }
                // Path (with `::` segments and optional turbofish).
                let mut segs = vec![tok.text.clone()];
                self.pos += 1;
                loop {
                    if !self.spend_fuel() {
                        break;
                    }
                    if self.at_punct(':') && self.peek_at(1).is_some_and(|t| t.is_punct(':')) {
                        // `::<…>` turbofish or `::segment`.
                        if self.peek_at(2).is_some_and(|t| t.is_punct('<')) {
                            self.pos += 2;
                            let open = self.pos;
                            if let Some(close) = angle_close_index(self.code, open) {
                                self.pos = close + 1;
                            } else {
                                break;
                            }
                            continue;
                        }
                        if self.peek_at(2).is_some_and(|t| t.kind == TokenKind::Ident) {
                            segs.push(self.code[self.pos + 2].text.clone());
                            self.pos += 3;
                            continue;
                        }
                        break;
                    }
                    break;
                }
                // Macro call.
                if self.at_punct('!') {
                    let next = self.peek_at(1);
                    if let Some(open) = next.and_then(Token::punct) {
                        if open == '(' || open == '[' || open == '{' {
                            let close_ch = match open {
                                '(' => ')',
                                '[' => ']',
                                _ => '}',
                            };
                            self.pos += 1; // `!`
                            let close = close_index(self.code, self.pos, open, close_ch)?;
                            self.pos += 1;
                            let mut args = Vec::new();
                            while self.pos < close {
                                if !self.spend_fuel() {
                                    break;
                                }
                                let arg_end =
                                    top_level_comma(self.code, self.pos, close).unwrap_or(close);
                                if arg_end > self.pos {
                                    args.push(self.parse_expr_recovering(arg_end));
                                }
                                self.pos = self.pos.max(arg_end.min(close));
                                if self.pos < close {
                                    self.pos += 1;
                                }
                            }
                            self.pos = close + 1;
                            return Some(Expr::Macro {
                                name: segs.pop().unwrap_or_default(),
                                args,
                                line,
                                col,
                            });
                        }
                    }
                }
                // Struct literal: `Path {` where the last segment is a
                // type-looking name.
                if structs_ok
                    && self.at_punct('{')
                    && segs
                        .last()
                        .is_some_and(|s| s.chars().next().is_some_and(char::is_uppercase))
                {
                    let close = close_index(self.code, self.pos, '{', '}')?;
                    self.pos += 1;
                    let mut fields = Vec::new();
                    while self.pos < close {
                        if !self.spend_fuel() {
                            break;
                        }
                        let field_end =
                            top_level_comma(self.code, self.pos, close).unwrap_or(close);
                        // `..base` spread.
                        if self.at_punct('.') && self.peek_at(1).is_some_and(|t| t.is_punct('.')) {
                            self.pos += 2;
                            let spread = self.parse_expr_recovering(field_end);
                            fields.push(("..".to_string(), spread));
                        } else if let Some(name_tok) =
                            self.peek().filter(|t| t.kind == TokenKind::Ident)
                        {
                            let fname = name_tok.text.clone();
                            let (fline, fcol) = (name_tok.line, name_tok.col);
                            self.pos += 1;
                            if self.at_punct(':')
                                && !self.peek_at(1).is_some_and(|t| t.is_punct(':'))
                            {
                                self.pos += 1;
                                let value = self.parse_expr_recovering(field_end);
                                fields.push((fname, value));
                            } else {
                                // Shorthand `Foo { x }`.
                                fields.push((
                                    fname.clone(),
                                    Expr::Path {
                                        segs: vec![fname],
                                        line: fline,
                                        col: fcol,
                                    },
                                ));
                            }
                        }
                        self.pos = self.pos.max(field_end.min(close));
                        if self.pos < close {
                            self.pos += 1;
                        }
                    }
                    self.pos = close + 1;
                    return Some(Expr::Struct {
                        ty: segs.pop().unwrap_or_default(),
                        fields,
                        line,
                        col,
                    });
                }
                Some(Expr::Path { segs, line, col })
            }
            _ => None,
        }
    }
}

/// Length in tokens of a binary operator at `pos` (0 when not one).
/// Collapse a one-element operand list to its element, else group it.
fn group_or_single(mut parts: Vec<Expr>) -> Expr {
    match parts.pop() {
        Some(only) if parts.is_empty() => only,
        Some(last) => {
            parts.push(last);
            Expr::Group { parts }
        }
        None => Expr::Group { parts },
    }
}

fn binary_op_len(code: &[Token], pos: usize) -> usize {
    let Some(tok) = code.get(pos) else { return 0 };
    let Some(c) = tok.punct() else {
        // `in` inside for-heads is handled by the caller; no ident ops.
        return 0;
    };
    let next = code.get(pos + 1).and_then(Token::punct);
    match c {
        '+' | '*' | '/' | '%' | '^' => 1,
        '-' => 1,
        '&' => {
            if next == Some('&') {
                2
            } else {
                1
            }
        }
        '|' => {
            if next == Some('|') {
                2
            } else {
                1
            }
        }
        '=' | '!' if next == Some('=') => 2,
        '<' | '>' => {
            if next == Some('=') {
                2
            } else {
                1
            }
        }
        '.' if next == Some('.') => {
            if code.get(pos + 2).is_some_and(|t| t.is_punct('=')) {
                3
            } else {
                2
            }
        }
        _ => 0,
    }
}

/// Bracket depth of `end` relative to `start` (over `(`/`[`/`{`).
fn depth_at(code: &[Token], start: usize, end: usize) -> i32 {
    let mut depth = 0i32;
    for tok in &code[start..end] {
        match tok.punct() {
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => depth -= 1,
            _ => {}
        }
    }
    depth
}

/// Index of the token closing the delimiter opened at `open_idx`.
fn close_index(code: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    if !code.get(open_idx)?.is_punct(open) {
        return None;
    }
    let mut depth = 0i32;
    for (k, tok) in code.iter().enumerate().skip(open_idx) {
        if tok.is_punct(open) {
            depth += 1;
        } else if tok.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Index of the `>` closing the `<` at `open_idx` (angle depth only,
/// skipping parens/brackets).
fn angle_close_index(code: &[Token], open_idx: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut k = open_idx;
    while k < code.len() {
        match code[k].punct() {
            Some('<') => depth += 1,
            Some('>') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            Some('(') => k = close_index(code, k, '(', ')')?,
            Some('[') => k = close_index(code, k, '[', ']')?,
            Some(';') | Some('{') | Some('}') => return None,
            _ => {}
        }
        k += 1;
    }
    None
}

/// First top-level `,` in `code[from..to]`.
fn top_level_comma(code: &[Token], from: usize, to: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut angle = 0i32;
    for (k, tok) in code.iter().enumerate().take(to.min(code.len())).skip(from) {
        match tok.punct() {
            Some('(') | Some('[') | Some('{') => depth += 1,
            Some(')') | Some(']') | Some('}') => depth -= 1,
            Some('<') => angle += 1,
            Some('>') => angle = (angle - 1).max(0),
            Some(',') if depth == 0 => return Some(k),
            _ => {}
        }
    }
    None
}

/// First top-level `,` where `<…>` nesting also counts (for generic
/// argument lists).
fn top_level_comma_angles(code: &[Token], from: usize, to: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, tok) in code.iter().enumerate().take(to.min(code.len())).skip(from) {
        match tok.punct() {
            Some('(') | Some('[') | Some('{') | Some('<') => depth += 1,
            Some(')') | Some(']') | Some('}') | Some('>') => depth -= 1,
            Some(',') if depth == 0 => return Some(k),
            _ => {}
        }
    }
    None
}

/// The identifiers a pattern binds: `Some((a, b))` → `[a, b]`,
/// `Foo { x, y: z }` → `[x, z]`, `mut state` → `[state]`.
///
/// Heuristic: an identifier binds unless it is a path/constructor head
/// (followed by `::`, `(` or `{`), a struct-pattern field name
/// (followed by `:`), a keyword, `_`, or starts with an uppercase
/// letter (enum variants like `None`).
pub fn pattern_bindings(pat: &[Token]) -> Vec<String> {
    const SKIP: [&str; 6] = ["mut", "ref", "box", "_", "if", "in"];
    let mut out = Vec::new();
    for (k, tok) in pat.iter().enumerate() {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let text = tok.text.as_str();
        if SKIP.contains(&text) {
            continue;
        }
        if text.chars().next().is_some_and(char::is_uppercase) {
            continue;
        }
        let next = pat.get(k + 1);
        if next.is_some_and(|t| t.is_punct('(') || t.is_punct('{')) {
            continue;
        }
        if next.is_some_and(|t| t.is_punct(':')) {
            // `field: binding` — the field name does not bind; `::` is a
            // path.
            continue;
        }
        // `a @ pattern` — `a` binds; fine as-is.
        if !out.contains(&tok.text) {
            out.push(tok.text.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        let toks: Vec<Token> = lex(src).into_iter().filter(|t| !t.is_comment()).collect();
        parse_file(&toks)
    }

    fn first_fn(file: &ParsedFile) -> &FnDef {
        for item in &file.items {
            match item {
                Item::Fn(f) => return f,
                Item::Impl { fns, .. } if !fns.is_empty() => return &fns[0],
                _ => {}
            }
        }
        panic!("no fn parsed");
    }

    #[test]
    fn fn_signature_params_and_ret() {
        let file = parse("fn f(doc: &CollectedDoc, n: usize) -> Vec<String> { Vec::new() }");
        let f = first_fn(&file);
        assert_eq!(f.name, "f");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].0, "doc");
        assert_eq!(f.params[0].1.as_ref().unwrap().name, "CollectedDoc");
        assert_eq!(f.ret.as_ref().unwrap().name, "Vec");
        assert_eq!(f.ret.as_ref().unwrap().args[0].name, "String");
        assert_eq!(file.degraded, 0);
    }

    #[test]
    fn impl_methods_and_self() {
        let file = parse("impl Tenant { pub fn spec(&self) -> &TenantSpec { &self.spec } }");
        let Item::Impl { ty, fns } = &file.items[0] else {
            panic!("impl expected: {:?}", file.items);
        };
        assert_eq!(ty, "Tenant");
        assert_eq!(fns[0].name, "spec");
        assert_eq!(fns[0].params[0].0, "self");
    }

    #[test]
    fn annotated_let_still_binds_the_name() {
        // Regression: the `: Vec<String>` annotation must not swallow the
        // binding (the pattern slice used to extend past the colon, making
        // `rows` look like a struct-field name).
        let file = parse("fn f() { let rows: Vec<String> = make(); rows }");
        let f = first_fn(&file);
        let Stmt::Let {
            bound, ty, init, ..
        } = &f.body.as_ref().unwrap().stmts[0]
        else {
            panic!("let expected");
        };
        assert_eq!(bound, &["rows".to_string()]);
        assert_eq!(ty.as_ref().unwrap().name, "Vec");
        assert!(init.is_some());
    }

    #[test]
    fn struct_fields_with_types() {
        let file = parse(
            "pub struct Backlog { queue: Mutex<VecDeque<TcpStream>>, ready: Condvar, stop: AtomicBool }",
        );
        let Item::Struct { name, fields } = &file.items[0] else {
            panic!("struct expected");
        };
        assert_eq!(name, "Backlog");
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0].0, "queue");
        assert_eq!(fields[0].1.name, "Mutex");
        assert_eq!(fields[0].1.peeled().name, "VecDeque");
    }

    #[test]
    fn let_call_field_method_chain() {
        let file = parse("fn f(d: &Doc) { let b = d.body.clone(); emit(b); }");
        let f = first_fn(&file);
        let body = f.body.as_ref().unwrap();
        let Stmt::Let { bound, init, .. } = &body.stmts[0] else {
            panic!("let expected: {:?}", body.stmts[0]);
        };
        assert_eq!(bound, &vec!["b".to_string()]);
        let Some(Expr::MethodCall { recv, method, .. }) = init.as_ref() else {
            panic!("method call expected: {init:?}");
        };
        assert_eq!(method, "clone");
        let Expr::Field { base, name, .. } = recv.as_ref() else {
            panic!("field expected");
        };
        assert_eq!(name, "body");
        assert!(matches!(base.as_ref(), Expr::Path { segs, .. } if segs == &["d"]));
        let Stmt::Semi(Expr::Call { callee, args, .. }) = &body.stmts[1] else {
            panic!("call expected: {:?}", body.stmts[1]);
        };
        assert!(matches!(callee.as_ref(), Expr::Path { segs, .. } if segs == &["emit"]));
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn macro_args_parse() {
        let file = parse("fn f(x: u32) { eprintln!(\"x = {}\", x); }");
        let f = first_fn(&file);
        let Stmt::Semi(Expr::Macro { name, args, .. }) = &f.body.as_ref().unwrap().stmts[0] else {
            panic!("macro expected");
        };
        assert_eq!(name, "eprintln");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn closures_and_iterators() {
        let file = parse(
            "fn f(v: Vec<Doc>) { let b: Vec<_> = v.iter().map(|d| d.body.clone()).collect(); }",
        );
        let f = first_fn(&file);
        let Stmt::Let { init, .. } = &f.body.as_ref().unwrap().stmts[0] else {
            panic!("let expected");
        };
        // collect( map( iter(v), closure ) )
        let Some(Expr::MethodCall { method, recv, .. }) = init.as_ref() else {
            panic!("collect expected");
        };
        assert_eq!(method, "collect");
        let Expr::MethodCall { method, args, .. } = recv.as_ref() else {
            panic!("map expected");
        };
        assert_eq!(method, "map");
        let Expr::Closure { params, .. } = &args[0] else {
            panic!("closure expected: {:?}", args[0]);
        };
        assert_eq!(params, &vec!["d".to_string()]);
    }

    #[test]
    fn if_let_match_for_bind_names() {
        let src = r#"
fn f(opt: Option<String>, map: M) {
    if let Some(x) = opt { use_it(x); }
    match fetch() {
        Ok(v) => sink(v),
        Err(e) if e.fatal() => {},
        _ => {}
    }
    for (k, v) in map.iter() { sink(v); }
}
"#;
        let file = parse(src);
        let f = first_fn(&file);
        let body = f.body.as_ref().unwrap();
        let Stmt::Semi(Expr::If { bound, .. }) = &body.stmts[0] else {
            panic!("if let expected: {:?}", body.stmts[0]);
        };
        assert_eq!(bound, &vec!["x".to_string()]);
        let Stmt::Semi(Expr::Match { arms, .. }) = &body.stmts[1] else {
            panic!("match expected");
        };
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[0].bound, vec!["v".to_string()]);
        assert_eq!(arms[1].bound, vec!["e".to_string()]);
        assert!(arms[1].guard.is_some());
        let (Stmt::Semi(Expr::For { bound, .. }) | Stmt::Expr(Expr::For { bound, .. })) =
            &body.stmts[2]
        else {
            panic!("for expected: {:?}", body.stmts[2]);
        };
        assert_eq!(bound, &vec!["k".to_string(), "v".to_string()]);
    }

    #[test]
    fn struct_literals_and_shorthand() {
        let file =
            parse("fn f(doc: D) -> Trace { Trace { trace_id, doc_id: doc.id, hops: vec![hop] } }");
        let f = first_fn(&file);
        let Stmt::Expr(Expr::Struct { ty, fields, .. }) = &f.body.as_ref().unwrap().stmts[0] else {
            panic!(
                "struct literal expected: {:?}",
                f.body.as_ref().unwrap().stmts[0]
            );
        };
        assert_eq!(ty, "Trace");
        assert_eq!(fields.len(), 3);
        assert_eq!(fields[0].0, "trace_id");
    }

    #[test]
    fn cfg_test_mod_is_marked() {
        let file = parse("#[cfg(test)]\nmod tests { fn helper() {} }");
        let Item::Mod {
            cfg_test, items, ..
        } = &file.items[0]
        else {
            panic!("mod expected: {:?}", file.items);
        };
        assert!(cfg_test);
        assert!(matches!(items[0], Item::Fn(_)));
    }

    #[test]
    fn degraded_constructs_are_counted_not_fatal() {
        // A macro-heavy item the parser does not model: it must keep
        // going and parse the following fn.
        let src = "macro_rules! m { ($x:expr) => { $x }; }\nfn ok() { let a = 1; }";
        let file = parse(src);
        assert!(file
            .items
            .iter()
            .any(|i| matches!(i, Item::Fn(f) if f.name == "ok")));
    }

    #[test]
    fn pattern_binding_extraction() {
        let toks: Vec<Token> = lex("Foo { x, y: z, .. }")
            .into_iter()
            .filter(|t| !t.is_comment())
            .collect();
        assert_eq!(
            pattern_bindings(&toks),
            vec!["x".to_string(), "z".to_string()]
        );
        let toks: Vec<Token> = lex("Some((mut a, b))")
            .into_iter()
            .filter(|t| !t.is_comment())
            .collect();
        assert_eq!(
            pattern_bindings(&toks),
            vec!["a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn never_panics_on_garbage() {
        for src in [
            "fn f( { }",
            "impl { fn }",
            "fn f() { let = ; }",
            "fn f() { x. }",
            "struct S { x: }",
            "fn f() { match x { } }",
            "fn f() { |a, b }",
            "fn f() { a < b > c << d }",
            "}} fn g() {}",
            "fn f() { for in x {} }",
        ] {
            let _ = parse(src);
        }
    }

    #[test]
    fn turbofish_collect_records_types() {
        let file = parse("fn f(m: M) { let v = m.iter().collect::<BTreeMap<u64, String>>(); }");
        let f = first_fn(&file);
        let Stmt::Let { init, .. } = &f.body.as_ref().unwrap().stmts[0] else {
            panic!("let");
        };
        let Some(Expr::MethodCall {
            method, turbofish, ..
        }) = init.as_ref()
        else {
            panic!("collect expected");
        };
        assert_eq!(method, "collect");
        assert_eq!(turbofish[0].name, "BTreeMap");
    }
}
