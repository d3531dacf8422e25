//! Edge-case coverage for the hand-rolled lexer and item scanner: raw
//! strings, nested braces and block comments, `cfg_attr`, comments that
//! quote code, and waiver parsing.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use mmdb_lint::lexer::{lex, Kind};
use mmdb_lint::scanner::scan;

fn idents(src: &str) -> Vec<String> {
    lex(src)
        .toks
        .iter()
        .filter(|t| t.kind == Kind::Ident)
        .map(|t| t.text.clone())
        .collect()
}

#[test]
fn code_inside_comments_never_reaches_the_token_stream() {
    let src = "// let x = data[0].unwrap();\n\
               /* xs[i] / 0; panic!(\"no\") */\n\
               let real = 1;\n";
    assert_eq!(idents(src), vec!["let", "real"]);
}

#[test]
fn block_comments_nest_and_count_lines() {
    let src = "/* outer /* inner\n still comment */\n also comment */ fin";
    let lexed = lex(src);
    assert_eq!(lexed.toks.len(), 1);
    assert!(lexed.toks[0].is_ident("fin"));
    assert_eq!(lexed.toks[0].line, 3);
}

#[test]
fn raw_strings_preserve_content_and_leak_no_idents() {
    let src = r####"let s = r#"xs[i].unwrap() " quote"#; after"####;
    let lexed = lex(src);
    let strs: Vec<_> = lexed.toks.iter().filter(|t| t.kind == Kind::Str).collect();
    assert_eq!(strs.len(), 1);
    assert_eq!(strs[0].text, "xs[i].unwrap() \" quote");
    assert_eq!(idents(src), vec!["let", "s", "after"]);
}

#[test]
fn raw_string_hash_count_must_match() {
    // The `"#` inside the body does not close an `r##"…"##` string.
    let src = "r##\"body \"# still\"## tail";
    let lexed = lex(src);
    assert_eq!(lexed.toks[0].text, "body \"# still");
    assert!(lexed.toks[1].is_ident("tail"));
}

#[test]
fn multiline_strings_keep_line_numbers_straight() {
    let src = "let a = \"line\none\ntwo\";\nlet b = r#\"x\ny\"#;\nlet c = 1;";
    let lexed = lex(src);
    let c = lexed.toks.iter().find(|t| t.is_ident("c")).unwrap();
    assert_eq!(c.line, 6);
    // An escaped newline inside a cooked string also counts: the string
    // spans lines 1-2, so `b` sits on line 3.
    let src2 = "let a = \"one\\\ntwo\";\nlet b = 2;";
    let b = lex(src2)
        .toks
        .into_iter()
        .find(|t| t.is_ident("b"))
        .unwrap();
    assert_eq!(b.line, 3);
}

#[test]
fn waivers_inside_strings_are_not_waivers() {
    let src = "let s = \"// mmdb-lint: allow(panic-path) — quoted\";";
    let lexed = lex(src);
    assert!(lexed.waivers.is_empty());
    assert!(lexed.issues.is_empty());
}

#[test]
fn lifetimes_and_char_literals_disambiguate() {
    let src = "fn f<'a>(x: &'a u8) -> char { 'x' }";
    let lexed = lex(src);
    let lifetimes: Vec<_> = lexed
        .toks
        .iter()
        .filter(|t| t.kind == Kind::Lifetime)
        .collect();
    assert_eq!(lifetimes.len(), 2);
    assert!(lifetimes.iter().all(|t| t.text == "a"));
    // 'x' is a char literal (Str), not a lifetime.
    assert!(lexed
        .toks
        .iter()
        .any(|t| t.kind == Kind::Str && t.line == 1));
}

#[test]
fn raw_identifiers_are_plain_idents() {
    let src = "let r#fn = r#type;";
    assert_eq!(idents(src), vec!["let", "fn", "type"]);
}

#[test]
fn trailing_vs_own_line_waivers_and_dash_variants() {
    let src = "\
let a = xs[i]; // mmdb-lint: allow(panic-path) — bound above
// mmdb-lint: allow(dirty-mark, lock-order) -- two rules, double dash
fn f() {}
";
    let lexed = lex(src);
    assert_eq!(lexed.waivers.len(), 2);
    assert!(!lexed.waivers[0].own_line);
    assert_eq!(lexed.waivers[0].justification, "bound above");
    assert!(lexed.waivers[1].own_line);
    assert_eq!(lexed.waivers[1].rules, vec!["dirty-mark", "lock-order"]);
    assert_eq!(lexed.waivers[1].justification, "two rules, double dash");
}

#[test]
fn malformed_waivers_become_issues() {
    let cases = [
        "// mmdb-lint: allow(panic-path)",      // no justification
        "// mmdb-lint: allow() — justified",    // empty rule list
        "// mmdb-lint: allow(panic-path — gap", // unclosed paren
        "// mmdb-lint: please ignore this",     // no allow(...) at all
    ];
    for src in cases {
        let lexed = lex(src);
        assert!(lexed.waivers.is_empty(), "accepted malformed: {src}");
        assert_eq!(lexed.issues.len(), 1, "no issue for: {src}");
    }
}

#[test]
fn nested_braces_and_nested_fns_attribute_to_the_outer_item() {
    let src = "\
fn outer(data: &mut Vec<u32>) {
    fn inner(x: usize) -> usize {
        match x {
            0 => {
                let _ = [1, 2];
                0
            }
            _ => x,
        }
    }
    data.push(inner(1) as u32);
}
fn sibling() {}
";
    let fns = scan(&lex(src).toks);
    assert_eq!(fns.len(), 2);
    assert_eq!(fns[0].name, "outer");
    assert_eq!(fns[0].end_line, 12);
    assert_eq!(fns[1].name, "sibling");
    assert_eq!(fns[1].line, 13);
}

#[test]
fn cfg_attr_is_not_a_cfg() {
    let src = "\
#[cfg_attr(test, allow(dead_code))]
fn plain() {}
#[cfg(test)]
fn test_only() {}
#[cfg(any(test, feature = \"check\"))]
fn either() {}
#[cfg(not(feature = \"check\"))]
fn negated() {}
";
    let fns = scan(&lex(src).toks);
    assert_eq!(fns.len(), 4);
    assert!(!fns[0].in_test, "cfg_attr must not mark the item as test");
    assert!(fns[1].in_test);
    assert!(fns[2].in_test);
    assert_eq!(fns[2].features, vec!["check"]);
    assert!(!fns[3].in_test, "not(...) conditions are dropped");
    assert!(fns[3].features.is_empty());
}

#[test]
fn module_cfg_propagates_to_contained_fns() {
    let src = "\
#[cfg(test)]
mod tests {
    fn helper() {}
    #[test]
    fn case() {}
}
fn outside() {}
";
    let fns = scan(&lex(src).toks);
    assert_eq!(fns.len(), 3);
    assert!(fns[0].in_test && fns[1].in_test);
    assert!(!fns[2].in_test);
}

#[test]
fn receiver_and_mut_param_detection() {
    let src = "\
struct Relation;
impl<'a> Relation {
    fn by_ref(&self) {}
    fn by_mut(&mut self) {}
    fn owned(self) {}
}
fn free(rel: &mut Relation, n: usize, out: &mut Vec<u32>) {}
";
    let fns = scan(&lex(src).toks);
    assert_eq!(fns.len(), 4);
    assert!(!fns[0].mut_self);
    assert!(fns[1].mut_self);
    assert_eq!(fns[1].qual_name, "Relation::by_mut");
    assert!(!fns[2].mut_self);
    assert_eq!(fns[3].mut_params, vec!["Relation", "Vec"]);
    assert_eq!(fns[3].impl_type, None);
}

#[test]
fn trait_impl_resolves_the_self_type_after_for() {
    let src = "\
trait Store { fn write(&mut self); }
impl Store for Relation {
    fn write(&mut self) {}
}
";
    let fns = scan(&lex(src).toks);
    let w = fns.iter().find(|f| f.body.is_some()).unwrap();
    assert_eq!(w.qual_name, "Relation::write");
}

#[test]
fn complex_return_types_do_not_derail_the_scanner() {
    let src = "\
fn arr() -> [u8; 4] { [0; 4] }
fn fnptr(f: fn(usize) -> usize) -> usize { f(1) }
fn generic<T: Iterator<Item = u8>>(it: T) -> Option<u8> { None }
";
    let fns = scan(&lex(src).toks);
    let names: Vec<_> = fns.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(names, vec!["arr", "fnptr", "generic"]);
    assert!(fns.iter().all(|f| f.body.is_some()));
}
