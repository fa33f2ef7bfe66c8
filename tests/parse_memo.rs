//! Differential suite for the per-function parse memo: whatever path
//! `parse_program` takes, its result equals the whole-source parse of
//! `parse_whole` — the same `Program`, statement ids and lines included, or
//! the byte-identical error.  The memo is process-wide, so every test here
//! also runs against whatever the other tests left in it.

use tmg_codegen::automotive::{generate_automotive, AutomotiveConfig};
use tmg_codegen::figure1::figure1_source;
use tmg_codegen::module_gen::{generate_module, ModuleGenConfig};
use tmg_codegen::table2::table2_source;
use tmg_codegen::wiper::wiper_source;
use tmg_minic::{memo, parse_program, parse_whole};

/// Asserts that the memo path and the whole-source path agree on `source`,
/// twice: once as found (cold or warm, depending on earlier tests) and once
/// surely warm.
fn same_as_whole(source: &str) {
    let whole = parse_whole(source);
    for round in 0..2 {
        let memo = parse_program(source);
        assert_eq!(
            memo, whole,
            "round {round}: the memo disagrees with the whole-source parse of\n{source}"
        );
        if let (Ok(memo), Ok(whole)) = (&memo, &whole) {
            let ids = |p: &tmg_minic::Program| {
                let mut ids = Vec::new();
                for f in &p.functions {
                    f.for_each_stmt(&mut |s| ids.push((s.id().0, s.line())));
                }
                ids
            };
            assert_eq!(ids(memo), ids(whole));
        }
    }
}

/// Whether a parse of `source` right after another one takes at least
/// `hits` functions from the memo, so the source was split as intended
/// (a wrong split falls back to the whole-source path with the same result).
/// The counters are process-wide: a parallel test's hits only add to the
/// delta, but a parallel test outgrowing the budget may evict between the
/// two parses, so a few attempts are allowed.
fn served_from_memo(source: &str, hits: u64) -> bool {
    (0..5).any(|_| {
        parse_program(source).expect("parse");
        let before = memo::stats();
        parse_program(source).expect("parse");
        memo::stats().hits - before.hits >= hits
    })
}

/// A small deterministic generator (xorshift64*), so the edits are
/// reproducible without a dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n.max(1)
    }
}

/// Byte offsets where function `index` (`void f<index>(`) starts.
fn function_start(source: &str, index: usize) -> usize {
    source
        .find(&format!("void f{index}("))
        .expect("generated function present")
}

fn fixtures() -> Vec<String> {
    let mut sources = vec![
        figure1_source(true),
        figure1_source(false),
        wiper_source(),
        table2_source(),
    ];
    for seed in 0..4 {
        sources.push(generate_automotive(&AutomotiveConfig::small(seed)).source);
    }
    sources
}

#[test]
fn single_function_fixtures_parse_as_before() {
    for source in fixtures() {
        same_as_whole(&source);
    }
}

#[test]
fn fixtures_joined_into_modules_parse_as_before() {
    // Distinct fixtures joined: the memo path.  A fixture repeated: a
    // duplicate definition, which must fail as the whole source fails.
    let sources = fixtures();
    let joined = [&sources[0], &sources[2], &sources[3], &sources[4]]
        .map(String::as_str)
        .join("\n");
    same_as_whole(&joined);
    same_as_whole(&format!("{}\n{}", sources[2], sources[2]));
}

#[test]
fn generated_modules_with_random_edits_parse_as_before() {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut configs: Vec<ModuleGenConfig> = (0..6).map(ModuleGenConfig::small).collect();
    configs.push(ModuleGenConfig::bench());
    for config in configs {
        let module = generate_module(&config);
        same_as_whole(&module.source);
        let n = module.function_count();
        for _ in 0..12 {
            let target = rng.below(n);
            let edited = module.edited(target).source;
            same_as_whole(&edited);
            // The same edit with `k` blank and comment lines inserted before
            // some function: every later line moves down.
            let at = function_start(&edited, rng.below(n));
            let padding = "\n// moved\n#pragma keep\n".repeat(1 + rng.below(3));
            let moved = format!("{}{padding}{}", &edited[..at], &edited[at..]);
            same_as_whole(&moved);
        }
    }
}

#[test]
fn braces_in_comments_and_hash_lines_do_not_split() {
    let source = "\
// a brace in a line comment }
void f0(char a __range(0, 3)) {
    /* braces { in a block } comment
       over lines } */
    if (a > 1) { x(); } // trailing }
#define NOT_A_BRACE }
}
# {
void f1(char a __range(0, 3)) { f0(a); /* } */ }
/* { */ void f2(void) { y(); }
";
    same_as_whole(source);
    assert_eq!(
        parse_program(source).expect("parse").functions.len(),
        3,
        "three functions"
    );
    assert!(
        served_from_memo(source, 3),
        "split into its three functions"
    );
    // A line comment ending the source without a newline.
    same_as_whole("void f(void) { x(); } void g(void) { y(); } // end }");
    // `/*/` does not close a comment.
    same_as_whole("void f(void) { x(); } /*/ } */ void g(void) { y(); }");
}

#[test]
fn renamed_and_duplicate_functions_parse_as_before() {
    let module = generate_module(&ModuleGenConfig::small(11));
    same_as_whole(&module.source);
    // Renaming a function leaves calls to the old name as external leaves.
    let renamed = module.source.replacen("void f3(", "void g3(", 1);
    same_as_whole(&renamed);
    // Two definitions of one name.
    let duplicate = module.source.replacen("void f3(", "void f2(", 1);
    let err = parse_program(&duplicate).expect_err("duplicate definition");
    assert!(err
        .to_string()
        .contains("duplicate function definition `f2`"));
    same_as_whole(&duplicate);
    // The same function text twice: both chunks hit one memo entry.
    let f1 = &module.source[function_start(&module.source, 1)..function_start(&module.source, 2)];
    same_as_whole(&format!("{}{f1}", module.source));
}

#[test]
fn a_callee_whose_arity_changed_fails_as_before() {
    let source = "void g(char a __range(0, 3)) { x(); }\nvoid f(char a __range(0, 3)) { g(a); }\n";
    same_as_whole(source);
    // Only the callee's text changes; the caller's chunk is a memo hit, yet
    // its call no longer matches.
    let changed = source.replacen(
        "void g(char a __range(0, 3))",
        "void g(char a __range(0, 3), char b)",
        1,
    );
    let err = parse_program(&changed).expect_err("arity mismatch");
    assert!(err
        .to_string()
        .contains("passes 1 argument(s) but the definition takes 2"));
    same_as_whole(&changed);
}

#[test]
fn malformed_sources_fail_as_before() {
    let good = "void f(void) { x(); }\nvoid g(void) { y(); }\n";
    same_as_whole(good);
    for bad in [
        format!("{good}garbage"),
        format!("{good}int"),
        format!("{good}}}"),
        format!("{good}{{"),
        format!("{good}/* never closed"),
        format!("/* never closed {good}"),
        format!("{good}void h(void) {{ z(); }} $"),
        format!("void f(void) {{ x(); }} ; {good}"),
        format!("{good}void h(void) {{ undeclared = 1; }}"),
        format!("{good}void h(void) {{ while (1) {{ }} }}"),
        format!("{{ }} {good}"),
        good.replace("x();", "x()"),
    ] {
        assert!(parse_whole(&bad).is_err(), "{bad}");
        same_as_whole(&bad);
    }
}

#[test]
fn a_module_larger_than_the_budget_parses_as_before() {
    let config = ModuleGenConfig {
        seed: 7,
        functions: 1200,
        max_callees: 3,
        body_stmts: 3,
    };
    let module = generate_module(&config);
    assert!(
        module.source.len() * 8 > memo::MEMO_BYTES,
        "the module must outgrow the memo: {} bytes",
        module.source.len()
    );
    same_as_whole(&module.source);
    same_as_whole(&module.edited(600).source);
    assert!(memo::stats().bytes <= memo::MEMO_BYTES as u64);
}

#[test]
fn a_second_parse_of_an_edited_module_hits_every_unchanged_function() {
    // Functions named for this test alone, so no other test's parse warms
    // or evicts them in between (eviction needs a full memo; this test
    // parses the edited copy right after the original).
    let module: String = (0..8)
        .map(|i| {
            format!("void hit_{i}(char a __range(0, 3)) {{ if (a > 1) {{ hit_leaf_{i}(); }} }}\n")
        })
        .collect();
    let edited = module.replacen("hit_leaf_3();", "hit_leaf_3(); hit_edit();", 1);
    // As in `served_from_memo`, with the original parsed first.
    let hit = (0..5).any(|_| {
        parse_program(&module).expect("parse");
        let before = memo::stats();
        same_as_whole(&edited);
        let after = memo::stats();
        after.hits - before.hits >= 7 && after.misses >= before.misses
    });
    assert!(
        hit,
        "the seven unchanged functions were never served from the memo"
    );
}

#[test]
fn concurrent_parses_agree_with_the_whole_source_path() {
    let module = generate_module(&ModuleGenConfig::bench());
    let sources: Vec<String> = (0..24).map(|i| module.edited(i % 50).source).collect();
    let expected: Vec<_> = sources.iter().map(|s| parse_whole(s)).collect();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (sources, expected) = (&sources, &expected);
            scope.spawn(move || {
                for round in 0..3 {
                    for i in (0..sources.len()).map(|i| (i + t * 5 + round) % sources.len()) {
                        assert_eq!(
                            parse_program(&sources[i]),
                            expected[i],
                            "thread {t}, source {i}"
                        );
                    }
                }
            });
        }
    });
}
