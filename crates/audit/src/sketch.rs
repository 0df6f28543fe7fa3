//! Per-function control-flow sketches.
//!
//! The extractor walks the significant token stream of a lexed file and
//! produces, for every `fn` body, an ordered event list: scope
//! openings/closings (loop bodies flagged), serial fabric verbs with
//! the identifiers they touch, batch adopters, `.await` suspension
//! points, lease-lock acquire/release pairs, `let` bindings (tagged
//! when their initializer issues a fabric verb or pins an epoch
//! guard), explicit `drop(x)` calls, epoch-guard evidence, retires and
//! blocking client calls. The sketch passes in [`crate::passes`] run
//! over these events; they never look at raw source again.
//!
//! Verb recognition follows the repo-wide receiver convention that the
//! `block-async` pass enshrines: a blocking `&mut FabricClient`
//! receiver is named `client` (or `c`/`cl` inside `.with(|c| …)`
//! closures and helper bodies). Raw verbs (`read`, `write`, `cas`,
//! `faa`, …) must sit on a client-ish receiver; structure-level verbs
//! (`get`, `insert`, `enqueue`, …) must pass a client-ish argument —
//! which is exactly what separates `tree.get(client, k)` (one-plus
//! round trips) from `map.get(&k)` (a plain `HashMap` probe).

use crate::lex::{Kind, Lexed, Token};

/// Serial fabric verbs on a client receiver — each call is at least one
/// round trip (posted writes are one message).
pub const RAW_VERBS: &[&str] = &[
    "read",
    "read_into",
    "write",
    "read_u64",
    "write_u64",
    "cas",
    "faa",
    "post_faa_u64",
    "issue",
    "load0",
    "load0_tagged",
    "load1",
    "load2",
    "store0",
    "store1",
    "store2",
    "faai",
    "saai",
    "faai_guarded",
    "saai_guarded",
    "faai_swap_guarded",
    "add0",
    "add1",
    "add2",
    "rscatter",
    "rgather",
    "wscatter",
    "wgather",
    "notify0",
    "notifye",
    "notify0d",
];

/// Structure-level verbs: one-plus round trips when a client-ish
/// identifier is among the arguments.
pub const STRUCT_VERBS: &[&str] = &[
    "get", "get_if", "get_hinted", "insert", "remove", "push", "pop", "enqueue",
    "dequeue", "put", "delete", "lookup", "take",
];

/// Batched twins and pipelining entry points: seeing one inside a loop
/// body means the loop already amortizes its round trips.
pub const ADOPTERS: &[&str] = &[
    "pipeline",
    "batch",
    "commit",
    "ring",
    "get_many",
    "get_many_async",
    "get_many_async_guarded",
    "read_ranges",
    "read_ranges_async",
    "dequeue_batch",
    "dequeue_batch_async",
    "scan",
];

/// The batched twin each serial verb should migrate to — surfaced in
/// `rt-in-loop` findings.
pub fn batched_twin(verb: &str) -> &'static str {
    match verb {
        "read" | "read_into" | "read_u64" | "load0" | "load0_tagged" | "load1" | "load2"
        | "rscatter" | "rgather" => "FarVec::read_ranges or pipeline().read",
        "write" | "write_u64" | "store0" | "store1" | "store2" | "wscatter" | "wgather" => {
            "write coalescing or pipeline().write"
        }
        "get" | "get_if" | "get_hinted" | "lookup" => "HtTree::get_many",
        "dequeue" | "pop" => "FarQueue::dequeue_batch",
        "cas" | "faa" | "post_faa_u64" | "faai" | "saai" | "faai_guarded" | "saai_guarded"
        | "faai_swap_guarded" | "add0" | "add1" | "add2" => "pipeline() descriptors",
        _ => "a pipeline() batch behind one doorbell",
    }
}

/// One sketch event, in source order.
#[derive(Debug, Clone)]
pub enum Ev {
    /// A `{` — `is_loop` when it opens a `for`/`while`/`loop` body.
    Open {
        /// Line of the brace.
        line: u32,
        /// Loop-body flag.
        is_loop: bool,
    },
    /// The matching `}`.
    Close {
        /// Line of the brace.
        line: u32,
    },
    /// A serial fabric verb call.
    Verb {
        /// Line of the method name.
        line: u32,
        /// Verb name (`read`, `enqueue`, …).
        name: String,
        /// Receiver and argument identifiers (for dataflow).
        idents: Vec<String>,
    },
    /// A batch adopter call (`pipeline`, `get_many`, …).
    Adopter {
        /// Line of the call.
        line: u32,
    },
    /// A `.await` suspension point.
    Await {
        /// Line of the `await`.
        line: u32,
    },
    /// A lease-lock acquisition (`lock`) with a client argument.
    Acquire {
        /// Line of the call.
        line: u32,
    },
    /// A lease-lock release (`unlock`) with a client argument.
    Release {
        /// Line of the call.
        line: u32,
    },
    /// A `let` binding.
    Let {
        /// Line of the `let`.
        line: u32,
        /// Bound (lowercase) pattern identifiers.
        names: Vec<String>,
        /// Initializer contained a fabric verb.
        from_verb: bool,
        /// Initializer contained an epoch `pin(…)` or `pin_deferred(…)`.
        from_pin: bool,
    },
    /// An explicit `drop(x)`.
    DropIdent {
        /// Line of the call.
        line: u32,
        /// The dropped identifier.
        name: String,
    },
    /// Epoch-guard evidence: a `pin(…)` or `pin_deferred(…)` call, or a
    /// `*_guarded(…)` method, which hands back the guard it pinned.
    Guard {
        /// Line of the call.
        line: u32,
    },
    /// A `.retire(…)` or `.retire_restructure(…)` call with arguments
    /// (`.retire()` is the arena's unrelated whole-arena teardown).
    Retire {
        /// Line of the call.
        line: u32,
    },
    /// A blocking fabric access: the `.with(…)` escape hatch of
    /// `AsyncClient`, or a method call on a `…client` receiver.
    Blocking {
        /// Line of the call.
        line: u32,
    },
}

impl Ev {
    /// The source line the event anchors to.
    pub fn line(&self) -> u32 {
        match self {
            Ev::Open { line, .. }
            | Ev::Close { line }
            | Ev::Verb { line, .. }
            | Ev::Adopter { line }
            | Ev::Await { line }
            | Ev::Acquire { line }
            | Ev::Release { line }
            | Ev::Let { line, .. }
            | Ev::DropIdent { line, .. }
            | Ev::Guard { line }
            | Ev::Retire { line }
            | Ev::Blocking { line } => *line,
        }
    }
}

/// The control-flow sketch of one function body.
pub struct FnSketch {
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Declared `async fn`.
    pub is_async: bool,
    /// Body sits inside an `impl Drop for …` block.
    pub in_drop_impl: bool,
    /// The signature names a `Guard` or `Pinned`: the caller holds an
    /// epoch guard for the whole body.
    pub guard_in_sig: bool,
    /// Ordered events.
    pub events: Vec<Ev>,
}

/// True for identifiers the repo uses for blocking fabric clients.
pub fn client_ish(ident: &str) -> bool {
    ident == "c" || ident == "cl" || ident.ends_with("client")
}

fn lower_binding(ident: &str) -> bool {
    !matches!(ident, "mut" | "ref" | "box" | "_")
        && ident
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
}

/// Extracts every function sketch from a lexed file, stopping at the
/// `#[cfg(test)]` cutoff (tests exercise protocols; they do not define
/// them).
pub fn extract(lx: &Lexed) -> Vec<FnSketch> {
    let toks: Vec<&Token> = lx.code().into_iter().map(|i| &lx.tokens[i]).collect();
    let text = |k: usize| -> &str { lx.text(toks[k]) };

    let mut out = Vec::new();
    // Stack of brace contexts opened so far at item level; `true` for
    // `impl Drop for …` block bodies.
    let mut impl_drop_stack: Vec<bool> = Vec::new();
    let mut k = 0usize;
    while k < toks.len() {
        let t = toks[k];
        match (t.kind, text(k)) {
            (Kind::Ident, "impl") => {
                // Scan the impl header up to its `{`, remembering
                // whether it is `impl Drop for …`.
                let mut saw_drop = false;
                let mut saw_for = false;
                let mut j = k + 1;
                while j < toks.len() && text(j) != "{" && text(j) != ";" {
                    if toks[j].kind == Kind::Ident {
                        match text(j) {
                            "Drop" => saw_drop = true,
                            "for" => saw_for = true,
                            _ => {}
                        }
                    }
                    j += 1;
                }
                if j < toks.len() && text(j) == "{" {
                    impl_drop_stack.push(saw_drop && saw_for);
                    k = j + 1;
                } else {
                    k = j + 1;
                }
            }
            (Kind::Punct, "{") => {
                // A brace at item level that is not an impl body —
                // mod body, match in a const, … Track it so the
                // impl_drop_stack stays balanced.
                impl_drop_stack.push(impl_drop_stack.last().copied().unwrap_or(false));
                k += 1;
            }
            (Kind::Punct, "}") => {
                impl_drop_stack.pop();
                k += 1;
            }
            (Kind::Ident, "fn") => {
                let is_async = (k.saturating_sub(3)..k).any(|j| text(j) == "async");
                let name = if k + 1 < toks.len() && toks[k + 1].kind == Kind::Ident {
                    text(k + 1).to_string()
                } else {
                    "<fn>".to_string()
                };
                let fn_line = t.line;
                // Skip the signature: find the body `{` at zero
                // paren/angle depth (`->` arrows excluded), or `;` for
                // a bodyless trait method.
                let mut paren = 0i64;
                let mut angle = 0i64;
                let mut j = k + 1;
                let mut body = None;
                while j < toks.len() {
                    match text(j) {
                        "(" | "[" => paren += 1,
                        ")" | "]" => paren -= 1,
                        "<" => angle += 1,
                        ">" if j > 0 && text(j - 1) != "-" => {
                            angle = (angle - 1).max(0);
                        }
                        "{" if paren == 0 && angle <= 0 => {
                            body = Some(j);
                            break;
                        }
                        ";" if paren == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                let Some(open) = body else {
                    k = j + 1;
                    continue;
                };
                let in_drop_impl = impl_drop_stack.last().copied().unwrap_or(false);
                let guard_in_sig = (k + 1..open).any(|j| matches!(text(j), "Guard" | "Pinned"));
                let (events, after) = walk_body(&toks, open, |k| lx.text(toks[k]));
                out.push(FnSketch {
                    name,
                    line: fn_line,
                    is_async,
                    in_drop_impl,
                    guard_in_sig,
                    events,
                });
                k = after;
            }
            _ => k += 1,
        }
    }
    out
}

/// An in-flight `let` statement capture: bound names, the brace depth
/// the statement sits at, whether scanning is past the `=`, and what
/// the initializer contained so far.
struct LetCap {
    line: u32,
    names: Vec<String>,
    depth: i64,
    in_rhs: bool,
    from_verb: bool,
    from_pin: bool,
}

impl LetCap {
    fn into_ev(self) -> Ev {
        Ev::Let {
            line: self.line,
            names: self.names,
            from_verb: self.from_verb,
            from_pin: self.from_pin,
        }
    }
}

/// Walks one `{ … }` body starting at the opening brace index; returns
/// the event list and the index one past the closing brace.
fn walk_body<'a>(
    toks: &[&Token],
    open: usize,
    text: impl Fn(usize) -> &'a str,
) -> (Vec<Ev>, usize) {
    let mut events = Vec::new();
    let mut depth = 0i64;
    let mut pending_loop = false;
    // Stack: closures and nested blocks inside an initializer may open
    // their own `let` statements before the outer one ends.
    let mut lets: Vec<LetCap> = Vec::new();
    let mut k = open;
    while k < toks.len() {
        let tx = text(k);
        match tx {
            "{" => {
                depth += 1;
                events.push(Ev::Open { line: toks[k].line, is_loop: pending_loop });
                pending_loop = false;
                k += 1;
                continue;
            }
            "}" => {
                depth -= 1;
                // A scope close ends any let statement opened inside it
                // (`match`/`if` initializers end at the `;` instead, at
                // their own depth).
                while lets.last().is_some_and(|c| c.depth > depth) {
                    events.push(lets.pop().expect("let cap").into_ev());
                }
                events.push(Ev::Close { line: toks[k].line });
                k += 1;
                if depth == 0 {
                    return (events, k);
                }
                continue;
            }
            ";" => {
                if lets.last().is_some_and(|c| c.depth == depth) {
                    events.push(lets.pop().expect("let cap").into_ev());
                }
                k += 1;
                continue;
            }
            "for" | "while" | "loop" => {
                // `for` in `for<'a>` bounds is followed by `<`.
                if !(tx == "for" && k + 1 < toks.len() && text(k + 1) == "<") {
                    pending_loop = true;
                }
                k += 1;
                continue;
            }
            "=" => {
                let prev = if k > 0 { text(k - 1) } else { "" };
                let next = if k + 1 < toks.len() { text(k + 1) } else { "" };
                if let Some(cap) = lets.last_mut() {
                    if !cap.in_rhs
                        && cap.depth == depth
                        && next != "="
                        && !matches!(prev, "=" | "!" | "<" | ">")
                    {
                        cap.in_rhs = true;
                    }
                }
                k += 1;
                continue;
            }
            "let" => {
                lets.push(LetCap {
                    line: toks[k].line,
                    names: Vec::new(),
                    depth,
                    in_rhs: false,
                    from_verb: false,
                    from_pin: false,
                });
                k += 1;
                continue;
            }
            _ => {}
        }

        if toks[k].kind == Kind::Ident {
            let ident = tx;
            let prev = if k > 0 { text(k - 1) } else { "" };
            let prev2 = if k > 1 { text(k - 2) } else { "" };
            let next = if k + 1 < toks.len() { text(k + 1) } else { "" };

            // Pattern identifiers of the innermost open let (before its
            // `=`).
            if let Some(cap) = lets.last_mut() {
                if !cap.in_rhs && lower_binding(ident) && prev != ":" && prev != "." {
                    cap.names.push(ident.to_string());
                }
            }

            // `.await` suspension point.
            if ident == "await" && prev == "." {
                events.push(Ev::Await { line: toks[k].line });
                k += 1;
                continue;
            }

            // `drop(x)`.
            if ident == "drop" && prev != "." && prev != ":" && next == "(" {
                if k + 3 < toks.len() && toks[k + 2].kind == Kind::Ident && text(k + 3) == ")" {
                    events.push(Ev::DropIdent {
                        line: toks[k].line,
                        name: text(k + 2).to_string(),
                    });
                }
                k += 1;
                continue;
            }

            // `pin(…)` / `pin_deferred(…)` call (epoch guard), bare or
            // path-qualified (`farmem_reclaim::pin`), not `Box::pin` /
            // `self.pin_epoch`.
            let path_pin = prev == ":" && prev2 == ":" && k >= 3 && text(k - 3) != "Box";
            let pins = ident == "pin" || ident == "pin_deferred";
            if pins && next == "(" && prev != "." && (prev != ":" || path_pin) {
                if let Some(cap) = lets.last_mut() {
                    if cap.in_rhs || cap.depth < depth {
                        cap.from_pin = true;
                    }
                }
                events.push(Ev::Guard { line: toks[k].line });
                k += 1;
                continue;
            }

            // Method calls: `.name(…)`.
            if prev == "." && next == "(" && prev2 != "." {
                let (args, direct) = call_idents(toks, k + 1, &text);
                let receiver = if k >= 2 && toks[k - 2].kind == Kind::Ident {
                    text(k - 2)
                } else {
                    ""
                };
                let line = toks[k].line;
                if ident.ends_with("_guarded") {
                    events.push(Ev::Guard { line });
                }
                let has_args = k + 2 < toks.len() && text(k + 2) != ")";
                if matches!(ident, "retire" | "retire_restructure") && has_args {
                    events.push(Ev::Retire { line });
                }
                if ident == "with" || receiver.ends_with("client") {
                    events.push(Ev::Blocking { line });
                }
                let is_raw = RAW_VERBS.contains(&ident) && client_ish(receiver);
                let is_struct = STRUCT_VERBS.contains(&ident)
                    && direct.iter().any(|a| client_ish(a))
                    && !client_ish(receiver);
                if ADOPTERS.contains(&ident) {
                    events.push(Ev::Adopter { line });
                } else if ident == "lock" {
                    if direct.iter().any(|a| client_ish(a)) {
                        events.push(Ev::Acquire { line });
                    }
                } else if ident == "unlock" {
                    if direct.iter().any(|a| client_ish(a)) {
                        events.push(Ev::Release { line });
                    }
                } else if is_raw || is_struct {
                    let mut idents = args;
                    if !receiver.is_empty() {
                        idents.push(receiver.to_string());
                    }
                    if let Some(cap) = lets.last_mut() {
                        if cap.in_rhs || cap.depth < depth {
                            cap.from_verb = true;
                        }
                    }
                    events.push(Ev::Verb { line, name: ident.to_string(), idents });
                }
                k += 1;
                continue;
            }
        }
        k += 1;
    }
    (events, k)
}

/// Identifiers inside the argument list whose `(` sits at index
/// `open`: all of them (any nesting depth — guard-escape wants a
/// dereference wherever it hides) and the *direct* ones (depth 1
/// only). Client-ish classification uses the direct list, so an
/// unrelated `client` or closure `|c|` inside a nested call —
/// `joins.push(scope.spawn(move || fabric.client()))` — cannot turn a
/// plain `Vec::push` into a fabric verb.
fn call_idents<'a>(
    toks: &[&Token],
    open: usize,
    text: &impl Fn(usize) -> &'a str,
) -> (Vec<String>, Vec<String>) {
    let mut depth = 0i64;
    let mut all = Vec::new();
    let mut direct = Vec::new();
    let mut k = open;
    while k < toks.len() {
        match text(k) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {
                if toks[k].kind == Kind::Ident {
                    all.push(text(k).to_string());
                    if depth == 1 {
                        direct.push(text(k).to_string());
                    }
                }
            }
        }
        k += 1;
    }
    (all, direct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn sketch(src: &str) -> Vec<FnSketch> {
        extract(&lex(src))
    }

    #[test]
    fn finds_functions_loops_and_verbs() {
        let src = r#"
fn touch(client: &mut FabricClient, ptrs: &[u64]) {
    for p in ptrs {
        let v = client.read_u64(FarAddr(*p)).unwrap();
        consume(v);
    }
}
"#;
        let fns = sketch(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "touch");
        assert!(!fns[0].is_async);
        let loops = fns[0]
            .events
            .iter()
            .filter(|e| matches!(e, Ev::Open { is_loop: true, .. }))
            .count();
        assert_eq!(loops, 1);
        let verbs: Vec<&str> = fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Ev::Verb { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(verbs, vec!["read_u64"]);
    }

    #[test]
    fn struct_verbs_require_a_client_argument() {
        let src = r#"
fn f(client: &mut FabricClient, tree: &mut HtTree, map: &mut HashMap<u64, u64>) {
    let a = tree.get(client, 7).unwrap();
    let b = map.get(&7);
    map.insert(1, 2);
    tree.insert(client, 1, 2).unwrap();
}
"#;
        let fns = sketch(src);
        let verbs: Vec<&str> = fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Ev::Verb { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(verbs, vec!["get", "insert"], "HashMap calls must not count");
    }

    #[test]
    fn locks_need_client_args_so_std_mutex_is_ignored() {
        let src = r#"
fn f(client: &mut FabricClient, m: &FarMutex, s: &Mutex<u32>) {
    let g = s.lock().unwrap();
    m.lock(client, 100).unwrap();
    m.unlock(client).unwrap();
}
"#;
        let fns = sketch(src);
        let acquires = fns[0]
            .events
            .iter()
            .filter(|e| matches!(e, Ev::Acquire { .. }))
            .count();
        let releases = fns[0]
            .events
            .iter()
            .filter(|e| matches!(e, Ev::Release { .. }))
            .count();
        assert_eq!((acquires, releases), (1, 1));
    }

    #[test]
    fn drop_impl_and_async_flags() {
        let src = r#"
impl Drop for Widget {
    fn drop(&mut self) { let x = 1; }
}
impl Widget {
    pub async fn go(&self) { work().await; }
}
"#;
        let fns = sketch(src);
        assert_eq!(fns.len(), 2);
        assert!(fns[0].in_drop_impl);
        assert!(!fns[1].in_drop_impl);
        assert!(fns[1].is_async);
        assert!(fns[1].events.iter().any(|e| matches!(e, Ev::Await { .. })));
    }

    #[test]
    fn let_bindings_tag_verb_and_pin_initializers() {
        let src = r#"
fn f(client: &mut FabricClient, shared: &SharedReclaim) {
    let guard = pin(shared, client).unwrap();
    let ptr = client.read_u64(addr).unwrap();
    let plain = 5;
}
"#;
        let fns = sketch(src);
        let lets: Vec<(Vec<String>, bool, bool)> = fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Ev::Let { names, from_verb, from_pin, .. } => {
                    Some((names.clone(), *from_verb, *from_pin))
                }
                _ => None,
            })
            .collect();
        assert_eq!(lets.len(), 3);
        assert_eq!(lets[0], (vec!["guard".to_string()], false, true));
        assert_eq!(lets[1], (vec!["ptr".to_string()], true, false));
        assert_eq!(lets[2], (vec!["plain".to_string()], false, false));
    }

    #[test]
    fn path_qualified_pin_is_an_epoch_pin() {
        let src = r#"
fn f(client: &mut FabricClient, shared: &SharedReclaim) {
    let guard = farmem_reclaim::pin(shared, client).unwrap();
    let deferred = pin_deferred(shared, client).unwrap();
}
"#;
        let fns = sketch(src);
        let pins = fns[0].events.iter().filter(|e| matches!(e, Ev::Let { from_pin: true, .. }));
        assert_eq!(pins.count(), 2, "both pins, the deferred one too");
    }

    #[test]
    fn box_pin_is_not_an_epoch_pin() {
        let src = r#"
fn f() {
    let fut = Box::pin(async move { 1 });
}
"#;
        let fns = sketch(src);
        assert!(fns[0].events.iter().all(|e| match e {
            Ev::Let { from_pin, .. } => !from_pin,
            _ => true,
        }));
    }

    #[test]
    fn let_else_scans_to_the_statement_end() {
        let src = r#"
fn f(client: &mut FabricClient, tree: &HtTree) -> Result<()> {
    let Some(ptr) = tree.get(client, 9)? else {
        return Ok(());
    };
    use_it(ptr);
    Ok(())
}
"#;
        let fns = sketch(src);
        let lets: Vec<(Vec<String>, bool)> = fns[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Ev::Let { names, from_verb, .. } => Some((names.clone(), *from_verb)),
                _ => None,
            })
            .collect();
        assert_eq!(lets, vec![(vec!["ptr".to_string()], true)]);
    }

    #[test]
    fn adopters_inside_loops_are_events() {
        let src = r#"
fn f(client: &mut FabricClient, keys: &[u64], tree: &mut HtTree) {
    for chunk in keys.chunks(64) {
        let got = tree.get_many(client, chunk).unwrap();
    }
}
"#;
        let fns = sketch(src);
        assert!(fns[0].events.iter().any(|e| matches!(e, Ev::Adopter { .. })));
    }
}
