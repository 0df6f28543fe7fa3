//! The analyzer's verb list against the fabric client itself. `rt-in-loop`
//! sees a round trip in a loop only if it knows the verb, so every public
//! `FabricClient` method that books a far access must be one of
//! [`RAW_VERBS`] — or `batch`, which the pass counts as an adopter.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use farmem_audit::lex::{lex, Kind};
use farmem_audit::sketch::RAW_VERBS;
use farmem_audit::workspace_root;

/// One method of an `impl FabricClient` block: whether it is `pub`, and
/// the client methods its body calls (on `self`, or on `c` inside a
/// verb's closure — the crate's receiver convention).
struct Method {
    public: bool,
    calls: BTreeSet<String>,
}

fn rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for e in std::fs::read_dir(dir).expect("read fabric source dir").flatten() {
        let p = e.path();
        if p.is_dir() {
            rs_files(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Every `FabricClient` method in the non-test source of `crates/fabric`.
fn client_methods() -> BTreeMap<String, Method> {
    let mut files = Vec::new();
    rs_files(&workspace_root().join("crates/fabric/src"), &mut files);
    let mut methods = BTreeMap::new();
    for path in files {
        let lx = lex(&std::fs::read_to_string(&path).expect("read source"));
        let toks: Vec<(&str, Kind)> =
            lx.code().into_iter().map(|i| (lx.text(&lx.tokens[i]), lx.tokens[i].kind)).collect();
        let text = |i: usize| toks.get(i).map_or("", |t| t.0);
        // The index one past the `}` matching the `{` at `open`.
        let close = |open: usize| {
            let mut depth = 0usize;
            for (j, t) in toks.iter().enumerate().skip(open) {
                match t.0 {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            return j + 1;
                        }
                    }
                    _ => {}
                }
            }
            toks.len()
        };
        let mut i = 0;
        while i < toks.len() {
            if !(text(i) == "impl" && text(i + 1) == "FabricClient" && text(i + 2) == "{") {
                i += 1;
                continue;
            }
            let end = close(i + 2);
            let mut j = i + 3;
            while j < end {
                if text(j) != "fn" {
                    j += 1;
                    continue;
                }
                let name = text(j + 1).to_string();
                let open = (j..end).find(|&k| text(k) == "{").expect("a method body");
                let body_end = close(open);
                let calls = (open..body_end)
                    .filter(|&k| {
                        matches!(text(k), "self" | "c")
                            && text(k + 1) == "."
                            && toks[k + 2].1 == Kind::Ident
                            && text(k + 3) == "("
                    })
                    .map(|k| text(k + 2).to_string())
                    .collect();
                let public = j > 0 && text(j - 1) == "pub";
                methods.insert(name, Method { public, calls });
                j = body_end;
            }
            i = end;
        }
    }
    methods
}

/// A method books a far access when it reaches `round_trip` (a signaled
/// verb: one dependent round trip) or `posted` (an unsignaled message).
/// `unsubscribe` cancels in the fabric's registry and `ring` books what
/// its descriptors' verbs book; neither goes through either wrapper.
#[test]
fn raw_verbs_are_every_client_method_that_books_a_far_access() {
    let methods = client_methods();
    assert!(methods.contains_key("round_trip") && methods.contains_key("posted"));
    let mut booking: BTreeSet<&str> = ["round_trip", "posted"].into();
    loop {
        let before = booking.len();
        for (name, m) in &methods {
            if m.calls.iter().any(|c| booking.contains(c.as_str())) {
                booking.insert(name);
            }
        }
        if booking.len() == before {
            break;
        }
    }
    let verbs: BTreeSet<&str> = booking
        .iter()
        .copied()
        .filter(|name| methods[*name].public)
        .collect();
    let listed: BTreeSet<&str> = RAW_VERBS.iter().copied().chain(["batch"]).collect();
    let unlisted: Vec<_> = verbs.difference(&listed).collect();
    let stale: Vec<_> = listed.difference(&verbs).collect();
    assert!(
        unlisted.is_empty() && stale.is_empty(),
        "client verbs missing from RAW_VERBS: {unlisted:?}; RAW_VERBS naming no booking verb: {stale:?}"
    );
    assert!(verbs.len() >= 30, "found only {} verbs: {verbs:?}", verbs.len());
}
