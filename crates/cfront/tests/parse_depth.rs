//! The parser's nesting bound: input nested past
//! [`MAX_NESTING`](bane_cfront::parse::MAX_NESTING) is a `ParseError`,
//! never a stack overflow, and everything up to the bound parses — on a
//! 2 MiB thread, the default size of a spawned thread.

use bane_cfront::parse::{parse, MAX_NESTING};

/// Runs `f` on a thread with a 2 MiB stack.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .expect("spawn test thread")
        .join()
        .expect("parser thread must not crash");
}

/// A function returning `expr`, with the declarations its shapes use.
fn in_main(expr: &str) -> String {
    format!("int f(int a) {{ return a; }}\nint main(void) {{ int a; int *p; p = &a; return {expr}; }}\n")
}

/// Every nesting shape of the grammar, `n` levels deep.
fn shapes(n: usize) -> Vec<(&'static str, String)> {
    vec![
        ("parens", in_main(&format!("{}a{}", "(".repeat(n), ")".repeat(n)))),
        ("calls", in_main(&format!("{}a{}", "f(".repeat(n), ")".repeat(n)))),
        ("derefs", in_main(&format!("{}&a", "*".repeat(n)))),
        ("assigns", in_main(&format!("{}a", "a = ".repeat(n)))),
        ("ternaries", in_main(&format!("{}a", "a ? a : ".repeat(n)))),
        ("index", in_main(&format!("{}0{}", "p[".repeat(n), "]".repeat(n)))),
        (
            "braces",
            format!("int main(void) {{ {}int a;{} return 0; }}\n", "{".repeat(n), "}".repeat(n)),
        ),
        (
            "ifs",
            format!("int main(void) {{ int a; {}a = 1; return 0; }}\n", "if (a) ".repeat(n)),
        ),
        (
            "initializers",
            format!("int g[1] = {}0{};\n", "{".repeat(n), "}".repeat(n)),
        ),
    ]
}

#[test]
fn hundred_thousand_nested_parens_and_braces_are_errors() {
    on_small_stack(|| {
        let n = 100_000;
        let parens = in_main(&format!("{}a{}", "(".repeat(n), ")".repeat(n)));
        let err = parse(&parens).expect_err("100k parens must be rejected");
        assert!(err.message.contains("nesting"), "{err}");
        let braces = format!("int main(void) {{ {}{} return 0; }}", "{".repeat(n), "}".repeat(n));
        let err = parse(&braces).expect_err("100k braces must be rejected");
        assert!(err.message.contains("nesting"), "{err}");
    });
}

#[test]
fn every_shape_parses_below_the_bound_and_fails_past_it() {
    on_small_stack(|| {
        // Each shape adds up to four levels of its own on top of the
        // requested count (the return expression, a binary operand, …), so
        // `MAX_NESTING - 4` of them fit and `MAX_NESTING` do not.
        for (name, source) in shapes(MAX_NESTING - 4) {
            if let Err(e) = parse(&source) {
                panic!("{name} at depth {}: {e}", MAX_NESTING - 4);
            }
        }
        for (name, source) in shapes(MAX_NESTING + 1) {
            let err = parse(&source).expect_err(name);
            assert!(err.message.contains("nesting"), "{name}: {err}");
        }
    });
}

#[test]
fn the_bound_counts_levels_exactly() {
    on_small_stack(|| {
        let parens = |n: usize| in_main(&format!("{}a{}", "(".repeat(n), ")".repeat(n)));
        assert!(parse(&parens(MAX_NESTING)).is_ok(), "MAX_NESTING levels parse");
        assert!(parse(&parens(MAX_NESTING + 1)).is_err(), "one more is an error");
    });
}
