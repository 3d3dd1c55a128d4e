//! Item-level parsing: `fn` / `enum` / `struct` / `impl` extraction on
//! top of the [`crate::lexer`] token stream.
//!
//! This is not a Rust parser — it is the smallest item-shape
//! recognizer the semantic rules (R4's delegation closure, R7, R9, R10)
//! need: item names, body token ranges, enum variants, struct field
//! names and types, and impl-block membership. It stays
//! zero-dependency and handles exactly the constructs that appear in
//! this workspace: no macro-generated items and no items nested in
//! function bodies (nested `fn`s are deliberately opaque — their calls
//! surface as part of the enclosing body).

use crate::lexer::{Tok, TokKind};

/// Identifier-shaped keywords that are never type or function names.
pub const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while",
];

/// `true` for tokens that can never be a call / type name.
pub fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// A `fn` item (free, trait-declared, or inside an `impl`).
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function name.
    pub name: String,
    /// 1-based line of the name.
    pub line: u32,
    /// `true` for `pub fn` (any visibility qualifier counts).
    pub is_pub: bool,
    /// Body token range `(open, close)` — indices of the `{` / `}`
    /// tokens in the file's stream; `None` for bodyless trait methods.
    pub body: Option<(usize, usize)>,
}

/// An `enum` declaration.
#[derive(Clone, Debug)]
pub struct EnumItem {
    /// The enum name.
    pub name: String,
    /// 1-based line of the name.
    pub line: u32,
    /// Declaration body token range (the braces).
    pub body: (usize, usize),
    /// Variant names with their lines.
    pub variants: Vec<(String, u32)>,
    /// Identifiers appearing in variant payload positions (tuple /
    /// struct variant field types), with lines — the type closure R10
    /// follows through enums.
    pub embedded_types: Vec<(String, u32)>,
}

/// A `struct` declaration.
#[derive(Clone, Debug)]
pub struct StructItem {
    /// The struct name.
    pub name: String,
    /// 1-based line of the name.
    pub line: u32,
    /// Field names (empty for unit and tuple structs).
    pub fields: Vec<String>,
    /// Identifiers appearing in field *type* position, with lines.
    pub field_types: Vec<(String, u32)>,
}

/// An `impl` block.
#[derive(Clone, Debug)]
pub struct ImplItem {
    /// `Some(trait)` for `impl Trait for Type`, `None` for inherent.
    pub trait_name: Option<String>,
    /// The implementing type's head identifier.
    pub type_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Indices into [`FileItems::fns`] of the functions in this block.
    pub fns: Vec<usize>,
}

/// Everything [`parse_items`] extracted from one file.
#[derive(Clone, Debug, Default)]
pub struct FileItems {
    /// All functions, in declaration order (including trait and impl
    /// methods).
    pub fns: Vec<FnItem>,
    /// All enum declarations.
    pub enums: Vec<EnumItem>,
    /// All struct declarations.
    pub structs: Vec<StructItem>,
    /// All impl blocks.
    pub impls: Vec<ImplItem>,
}

impl FileItems {
    /// Index of the function named `name`, if declared in this file.
    pub fn fn_named(&self, name: &str) -> Option<usize> {
        self.fns.iter().position(|f| f.name == name)
    }

    /// The innermost function whose body contains token index `idx`.
    pub fn enclosing_fn(&self, idx: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(o, c)| o <= idx && idx <= c))
            .min_by_key(|f| {
                let (o, c) = f.body.expect("filtered on body presence");
                c - o
            })
    }
}

/// Parses the item structure out of a (test-stripped) token stream.
pub fn parse_items(toks: &[Tok]) -> FileItems {
    // Positions of non-comment tokens; all structural scanning happens
    // over this view, while recorded ranges index the original stream.
    let sig: Vec<usize> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind != TokKind::Comment)
        .map(|(i, _)| i)
        .collect();
    let mut items = FileItems::default();
    // Innermost-first stack of `(body end, impl index)` for impl blocks
    // currently being scanned.
    let mut impl_stack: Vec<(usize, usize)> = Vec::new();
    let mut s = 0usize;
    while s < sig.len() {
        let i = sig[s];
        while let Some(&(end, _)) = impl_stack.last() {
            if i > end {
                impl_stack.pop();
            } else {
                break;
            }
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            s += 1;
            continue;
        }
        match t.text.as_str() {
            "fn" => {
                // `fn` pointer types (`fn(u32) -> u32`) have `(` next
                // and are not items.
                let Some(&ni) = sig.get(s + 1) else { break };
                if toks[ni].kind != TokKind::Ident {
                    s += 1;
                    continue;
                }
                let is_pub = visibility_qualified(toks, &sig, s);
                // Scan the signature for the body `{` or the trailing
                // `;` of a bodyless trait method.
                let mut k = s + 2;
                let mut body = None;
                while let Some(&j) = sig.get(k) {
                    if toks[j].is_punct(';') {
                        break;
                    }
                    if toks[j].is_punct('{') {
                        let close = brace_match(toks, &sig, k);
                        body = Some((j, sig[close]));
                        k = close;
                        break;
                    }
                    k += 1;
                }
                let fn_idx = items.fns.len();
                items.fns.push(FnItem {
                    name: toks[ni].text.clone(),
                    line: toks[ni].line,
                    is_pub,
                    body,
                });
                if let Some(&(end, impl_idx)) = impl_stack.last() {
                    if i < end {
                        items.impls[impl_idx].fns.push(fn_idx);
                    }
                }
                s = k + 1;
            }
            "enum" => {
                let Some(&ni) = sig.get(s + 1) else { break };
                if toks[ni].kind != TokKind::Ident {
                    s += 1;
                    continue;
                }
                // Skip generics to the body.
                let mut k = s + 2;
                while let Some(&j) = sig.get(k) {
                    if toks[j].is_punct('{') || toks[j].is_punct(';') {
                        break;
                    }
                    k += 1;
                }
                if sig.get(k).is_none_or(|&j| !toks[j].is_punct('{')) {
                    s = k + 1;
                    continue;
                }
                let close = brace_match(toks, &sig, k);
                let (variants, embedded_types) = parse_enum_body(toks, &sig, k, close);
                items.enums.push(EnumItem {
                    name: toks[ni].text.clone(),
                    line: toks[ni].line,
                    body: (sig[k], sig[close]),
                    variants,
                    embedded_types,
                });
                s = close + 1;
            }
            "struct" => {
                let Some(&ni) = sig.get(s + 1) else { break };
                if toks[ni].kind != TokKind::Ident {
                    s += 1;
                    continue;
                }
                let name = toks[ni].text.clone();
                let line = toks[ni].line;
                let mut fields = Vec::new();
                let mut field_types = Vec::new();
                // Unit: `;` first. Tuple: `(` — payload idents are all
                // types. Braced: fields are `name: Type`.
                let mut k = s + 2;
                while let Some(&j) = sig.get(k) {
                    if toks[j].is_punct(';') {
                        break;
                    }
                    if toks[j].is_punct('(') {
                        let close = paren_match(toks, &sig, k);
                        for &p in &sig[k + 1..close] {
                            let pt = &toks[p];
                            if pt.kind == TokKind::Ident && !is_keyword(&pt.text) {
                                field_types.push((pt.text.clone(), pt.line));
                            }
                        }
                        k = close;
                        break;
                    }
                    if toks[j].is_punct('{') {
                        let close = brace_match(toks, &sig, k);
                        parse_struct_body(toks, &sig, k, close, &mut fields, &mut field_types);
                        k = close;
                        break;
                    }
                    k += 1;
                }
                items.structs.push(StructItem {
                    name,
                    line,
                    fields,
                    field_types,
                });
                s = k + 1;
            }
            "impl" => {
                // Header: `impl<G..> [Trait for] Type<..> [where ..] {`.
                let line = t.line;
                let mut k = s + 1;
                let mut angle = 0i32;
                let mut trait_name: Option<String> = None;
                let mut head: Option<String> = None;
                let mut after_for = false;
                let mut type_name: Option<String> = None;
                let mut opened = None;
                while let Some(&j) = sig.get(k) {
                    let tj = &toks[j];
                    match tj.kind {
                        TokKind::Punct('<') => angle += 1,
                        TokKind::Punct('>') => angle -= 1,
                        TokKind::Punct('{') if angle <= 0 => {
                            opened = Some(k);
                            break;
                        }
                        TokKind::Punct(';') if angle <= 0 => break,
                        TokKind::Ident if angle <= 0 => {
                            if tj.text == "for" {
                                trait_name = head.take();
                                after_for = true;
                            } else if tj.text == "where" {
                                // Bounds follow; the head is settled.
                            } else if !is_keyword(&tj.text) {
                                if after_for {
                                    if type_name.is_none() {
                                        type_name = Some(tj.text.clone());
                                    }
                                } else {
                                    head = Some(tj.text.clone());
                                }
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                let Some(open_pos) = opened else {
                    s = k + 1;
                    continue;
                };
                let close = brace_match(toks, &sig, open_pos);
                let type_name = type_name.or(head).unwrap_or_default();
                let impl_idx = items.impls.len();
                items.impls.push(ImplItem {
                    trait_name,
                    type_name,
                    line,
                    fns: Vec::new(),
                });
                impl_stack.push((sig[close], impl_idx));
                // Descend into the block to pick up its functions.
                s = open_pos + 1;
            }
            _ => s += 1,
        }
    }
    items
}

/// `true` when the tokens immediately before `sig[s]` are a visibility
/// qualifier (`pub`, `pub(crate)`, …).
fn visibility_qualified(toks: &[Tok], sig: &[usize], s: usize) -> bool {
    let mut back = s;
    for _ in 0..5 {
        if back == 0 {
            return false;
        }
        back -= 1;
        let t = &toks[sig[back]];
        if t.is_ident("pub") {
            return true;
        }
        // Allow the tokens of a `pub(crate)` / `pub(super)` qualifier.
        let in_qualifier = t.is_punct('(')
            || t.is_punct(')')
            || t.is_ident("crate")
            || t.is_ident("super")
            || t.is_ident("in");
        if !in_qualifier {
            return false;
        }
    }
    false
}

/// Matching `}` for the `{` at sig position `open` (sig positions).
fn brace_match(toks: &[Tok], sig: &[usize], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, &j) in sig.iter().enumerate().skip(open) {
        match toks[j].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    sig.len().saturating_sub(1)
}

/// Matching `)` for the `(` at sig position `open` (sig positions).
fn paren_match(toks: &[Tok], sig: &[usize], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, &j) in sig.iter().enumerate().skip(open) {
        match toks[j].kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    sig.len().saturating_sub(1)
}

/// `(name, line)` pairs — the shape shared by variant lists, payload
/// type lists, and struct field-type lists.
pub type NamedLines = Vec<(String, u32)>;

/// Variants and payload type idents of an enum body
/// (`sig[open]..sig[close]` are the braces).
fn parse_enum_body(
    toks: &[Tok],
    sig: &[usize],
    open: usize,
    close: usize,
) -> (NamedLines, NamedLines) {
    let mut variants = Vec::new();
    let mut embedded = Vec::new();
    let mut brace = 0i32;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut prev_sig: Option<char> = Some('{');
    for k in open..=close {
        let t = &toks[sig[k]];
        match t.kind {
            TokKind::Punct('{') => brace += 1,
            TokKind::Punct('}') => brace -= 1,
            TokKind::Punct('(') => paren += 1,
            TokKind::Punct(')') => paren -= 1,
            TokKind::Punct('[') => bracket += 1,
            TokKind::Punct(']') => bracket -= 1,
            TokKind::Ident if !is_keyword(&t.text) => {
                let at_variant_pos = brace == 1 && paren == 0 && bracket == 0;
                let after_separator = matches!(prev_sig, Some('{' | ',' | ']'));
                if at_variant_pos && after_separator {
                    variants.push((t.text.clone(), t.line));
                } else if brace >= 1 {
                    // Inside a variant payload: a field type (or a
                    // payload field name — filtered by the `:` that
                    // follows names; over-collection is harmless for
                    // the R10 closure, which resolves by declaration).
                    let is_field_name = sig.get(k + 1).is_some_and(|&n| toks[n].is_punct(':'));
                    if !is_field_name {
                        embedded.push((t.text.clone(), t.line));
                    }
                }
            }
            _ => {}
        }
        prev_sig = match t.kind {
            TokKind::Punct(c) => Some(c),
            _ => None,
        };
    }
    (variants, embedded)
}

/// Field names and type idents of a braced struct body.
fn parse_struct_body(
    toks: &[Tok],
    sig: &[usize],
    open: usize,
    close: usize,
    fields: &mut Vec<String>,
    field_types: &mut Vec<(String, u32)>,
) {
    for k in open + 1..close {
        let t = &toks[sig[k]];
        if t.kind != TokKind::Ident || is_keyword(&t.text) {
            continue;
        }
        if sig.get(k + 1).is_some_and(|&n| toks[n].is_punct(':')) {
            // `name :` — a field name (or a bound like `P: Trait` in a
            // nested generic; harmless either way).
            fields.push(t.text.clone());
        } else {
            field_types.push((t.text.clone(), t.line));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn parse(src: &str) -> FileItems {
        parse_items(&tokenize(src))
    }

    #[test]
    fn extracts_fns_and_impl_membership() {
        let items = parse(
            "pub fn free() { helper(); }\n\
             impl Widget {\n  fn helper(&self) -> u32 { 1 }\n}\n\
             impl Display for Widget {\n  fn fmt(&self) {}\n}\n",
        );
        let names: Vec<&str> = items.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["free", "helper", "fmt"]);
        assert!(items.fns[0].is_pub && !items.fns[1].is_pub);
        assert_eq!(items.impls.len(), 2);
        assert_eq!(items.impls[0].trait_name, None);
        assert_eq!(items.impls[0].type_name, "Widget");
        assert_eq!(items.impls[0].fns, [1]);
        assert_eq!(items.impls[1].trait_name.as_deref(), Some("Display"));
        assert_eq!(items.impls[1].fns, [2]);
    }

    #[test]
    fn bodyless_trait_methods_do_not_swallow_neighbors() {
        let items =
            parse("trait T {\n  fn required(&self) -> u32;\n  fn provided(&self) { body(); }\n}\n");
        assert_eq!(items.fns.len(), 2);
        assert!(items.fns[0].body.is_none());
        assert!(items.fns[1].body.is_some());
    }

    #[test]
    fn extracts_enum_variants_and_payload_types() {
        let items = parse(
            "pub enum Msg {\n  Ping,\n  Data { seq: u32, body: Payload },\n  Pair(NodeId, u64),\n}\n",
        );
        let e = &items.enums[0];
        assert_eq!(e.name, "Msg");
        let vs: Vec<&str> = e.variants.iter().map(|(v, _)| v.as_str()).collect();
        assert_eq!(vs, ["Ping", "Data", "Pair"]);
        let ts: Vec<&str> = e.embedded_types.iter().map(|(t, _)| t.as_str()).collect();
        assert!(ts.contains(&"Payload") && ts.contains(&"NodeId"));
        assert!(!ts.contains(&"seq"), "field names are not types");
    }

    #[test]
    fn extracts_struct_fields_and_types() {
        let items = parse(
            "struct Shared { stop: AtomicBool, error: Mutex<Option<ProtocolError>> }\n\
             struct Unit;\nstruct Pair(u32, BitSet);\n",
        );
        let s = &items.structs[0];
        assert_eq!(s.fields, ["stop", "error"]);
        let ts: Vec<&str> = s.field_types.iter().map(|(t, _)| t.as_str()).collect();
        assert!(ts.contains(&"AtomicBool") && ts.contains(&"Mutex"));
        assert_eq!(items.structs[1].fields.len(), 0);
        let pair: Vec<&str> = items.structs[2]
            .field_types
            .iter()
            .map(|(t, _)| t.as_str())
            .collect();
        assert_eq!(pair, ["u32", "BitSet"]);
    }

    #[test]
    fn generic_impl_headers_resolve_trait_and_type() {
        let items = parse(
            "impl<P: RadioProtocol> Engine for Sharded<P> where P: Send {\n  fn drive() {}\n}\n",
        );
        let im = &items.impls[0];
        assert_eq!(im.trait_name.as_deref(), Some("Engine"));
        assert_eq!(im.type_name, "Sharded");
        assert_eq!(im.fns.len(), 1);
    }

    #[test]
    fn enclosing_fn_prefers_innermost() {
        let src = "fn outer() { inner_call(); }";
        let toks = tokenize(src);
        let items = parse_items(&toks);
        let idx = toks.iter().position(|t| t.is_ident("inner_call")).unwrap();
        assert_eq!(items.enclosing_fn(idx).unwrap().name, "outer");
    }
}
