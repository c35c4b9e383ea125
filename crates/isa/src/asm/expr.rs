//! Constant expressions for immediates, offsets, counts and targets.
//!
//! ```text
//! expr    := term   (('+' | '-') term)*
//! term    := unary  (('*' | '/') unary)*
//! unary   := '-' unary | primary
//! primary := INT | IDENT | 'lo' '(' expr ')' | 'hi' '(' expr ')'
//!          | '(' expr ')'
//! ```
//!
//! Expressions are parsed into a small spanned AST in pass 1 (so syntax
//! errors surface immediately) and evaluated in pass 2 against the
//! completed symbol table (so forward references cost nothing). `lo(x)`
//! and `hi(x)` take the low/high 16 bits — the classic split for
//! materialising an address in two immediates. All arithmetic is checked
//! `i64`: overflow and division by zero are diagnostics, never panics or
//! silent wrap-around. So is an expression deeper than
//! [`MAX_EXPR_DEPTH`] levels, since parsing, evaluating and dropping the
//! tree all recurse through its levels.

use super::lexer::{Tok, Token};
use super::{codes, AsmDiagnostic, Span};

/// A parsed constant expression, spanned for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int(i64, Span),
    /// Symbol reference (label, function or data label).
    Sym(String, Span),
    /// Unary negation.
    Neg(Box<Expr>, Span),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>, Span),
    /// `lo(e)` — low 16 bits.
    Lo(Box<Expr>, Span),
    /// `hi(e)` — bits 16..32.
    Hi(Box<Expr>, Span),
}

/// The binary operators, by precedence tier (`*` `/` bind tighter than
/// `+` `-`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl Expr {
    /// The source span the whole expression covers.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s)
            | Expr::Sym(_, s)
            | Expr::Neg(_, s)
            | Expr::Bin(_, _, _, s)
            | Expr::Lo(_, s)
            | Expr::Hi(_, s) => *s,
        }
    }

    /// Evaluates against `resolve` (symbol name → value). Undefined
    /// symbols, overflow and division by zero come back as diagnostics
    /// anchored to the offending sub-expression.
    pub fn eval(&self, resolve: &dyn Fn(&str) -> Option<i64>) -> Result<i64, AsmDiagnostic> {
        match self {
            Expr::Int(v, _) => Ok(*v),
            Expr::Sym(name, span) => resolve(name).ok_or_else(|| {
                AsmDiagnostic::new(
                    codes::UNDEFINED_SYMBOL,
                    *span,
                    format!("undefined symbol `{name}`"),
                )
            }),
            Expr::Neg(e, span) => e.eval(resolve)?.checked_neg().ok_or_else(|| {
                AsmDiagnostic::new(codes::BAD_EXPRESSION, *span, "negation overflows")
            }),
            Expr::Bin(op, a, b, span) => {
                let (a, b) = (a.eval(resolve)?, b.eval(resolve)?);
                let r = match op {
                    BinOp::Add => a.checked_add(b),
                    BinOp::Sub => a.checked_sub(b),
                    BinOp::Mul => a.checked_mul(b),
                    BinOp::Div if b == 0 => {
                        return Err(AsmDiagnostic::new(
                            codes::BAD_EXPRESSION,
                            *span,
                            "division by zero",
                        ))
                    }
                    BinOp::Div => a.checked_div(b),
                };
                r.ok_or_else(|| {
                    AsmDiagnostic::new(codes::BAD_EXPRESSION, *span, "expression overflows")
                })
            }
            Expr::Lo(e, _) => Ok(e.eval(resolve)? & 0xFFFF),
            Expr::Hi(e, _) => Ok((e.eval(resolve)? >> 16) & 0xFFFF),
        }
    }
}

/// A cursor over one statement's tokens (never crosses a newline — the
/// statement parser hands us an in-line slice).
pub struct Cursor<'a> {
    toks: &'a [Token],
    pos: usize,
    /// Span to anchor "expected X, found end of line" diagnostics to.
    eol: Span,
}

impl<'a> Cursor<'a> {
    /// A cursor over `toks`, anchoring end-of-input errors to `eol`.
    pub fn new(toks: &'a [Token], eol: Span) -> Cursor<'a> {
        Cursor { toks, pos: 0, eol }
    }

    /// The next unconsumed token, if any.
    pub fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    /// The token after the next one (for the `name:` label lookahead).
    pub fn peek2(&self) -> Option<&'a Token> {
        self.toks.get(self.pos + 1)
    }

    /// Consumes and returns the next token.
    pub fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// `true` once every token is consumed.
    pub fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    /// The span errors at the current position anchor to.
    pub fn here(&self) -> Span {
        self.peek().map(|t| t.span).unwrap_or(self.eol)
    }

    /// Consumes one expected punctuation token or reports what was found.
    pub fn expect(&mut self, tok: &Tok, what: &str) -> Result<Span, AsmDiagnostic> {
        match self.peek() {
            Some(t) if &t.tok == tok => Ok(self.bump().expect("peeked").span),
            Some(t) => Err(AsmDiagnostic::new(
                codes::SYNTAX,
                t.span,
                format!("expected {what}, found `{}`", describe(&t.tok)),
            )),
            None => Err(AsmDiagnostic::new(
                codes::SYNTAX,
                self.eol,
                format!("expected {what}, found end of line"),
            )),
        }
    }
}

/// A short printable name for a token (for "found `...`" messages).
pub fn describe(tok: &Tok) -> String {
    match tok {
        Tok::Ident(n) => n.clone(),
        Tok::Directive(n) => format!(".{n}"),
        Tok::Int(v) => v.to_string(),
        Tok::Comma => ",".into(),
        Tok::Colon => ":".into(),
        Tok::LParen => "(".into(),
        Tok::RParen => ")".into(),
        Tok::LBracket => "[".into(),
        Tok::RBracket => "]".into(),
        Tok::Plus => "+".into(),
        Tok::Minus => "-".into(),
        Tok::Star => "*".into(),
        Tok::Slash => "/".into(),
        Tok::At => "@".into(),
        Tok::Bang => "!".into(),
        Tok::Newline => "end of line".into(),
    }
}

/// Levels an expression may nest: the whole expression is one, and each
/// parenthesis, unary minus, `lo`/`hi` and chained operator adds one.
pub const MAX_EXPR_DEPTH: u32 = 64;

/// `level` when it is within [`MAX_EXPR_DEPTH`], else an E110 at `span`.
fn within(level: u32, span: Span) -> Result<u32, AsmDiagnostic> {
    (level <= MAX_EXPR_DEPTH).then_some(level).ok_or_else(|| {
        let too_deep = format!("expression nests deeper than {MAX_EXPR_DEPTH} levels");
        AsmDiagnostic::new(codes::BAD_EXPRESSION, span, too_deep)
    })
}

/// An expression and the deepest level it reaches. Each parser below
/// takes the level its expression sits at, and refuses a level past
/// [`MAX_EXPR_DEPTH`] before it recurses into it.
type Parsed = Result<(Expr, u32), AsmDiagnostic>;

/// Parses one expression at the cursor (precedence-climbing descent).
pub fn parse(c: &mut Cursor) -> Result<Expr, AsmDiagnostic> {
    parse_sum(c, 1).map(|(e, _)| e)
}

fn parse_sum(c: &mut Cursor, level: u32) -> Parsed {
    let op = |t: &Tok| match t {
        Tok::Plus => Some(BinOp::Add),
        Tok::Minus => Some(BinOp::Sub),
        _ => None,
    };
    parse_chain(c, level, op, parse_term)
}

fn parse_term(c: &mut Cursor, level: u32) -> Parsed {
    let op = |t: &Tok| match t {
        Tok::Star => Some(BinOp::Mul),
        Tok::Slash => Some(BinOp::Div),
        _ => None,
    };
    parse_chain(c, level, op, parse_unary)
}

/// `operand (op operand)*`, left-associative: each operator pushes the
/// chain so far one level down.
fn parse_chain(
    c: &mut Cursor,
    level: u32,
    op: fn(&Tok) -> Option<BinOp>,
    operand: fn(&mut Cursor, u32) -> Parsed,
) -> Parsed {
    let (mut lhs, mut deepest) = operand(c, level)?;
    while let Some(op) = c.peek().and_then(|t| op(&t.tok)) {
        c.bump();
        let (rhs, rhs_deepest) = operand(c, level + 1)?;
        let span = lhs.span().to(rhs.span());
        deepest = within((deepest + 1).max(rhs_deepest), span)?;
        lhs = Expr::Bin(op, Box::new(lhs), Box::new(rhs), span);
    }
    Ok((lhs, deepest))
}

fn parse_unary(c: &mut Cursor, level: u32) -> Parsed {
    if let Some(t) = c.peek() {
        if t.tok == Tok::Minus {
            let start = t.span;
            c.bump();
            let (e, deepest) = parse_unary(c, within(level + 1, start)?)?;
            let span = start.to(e.span());
            return Ok((Expr::Neg(Box::new(e), span), deepest));
        }
    }
    parse_primary(c, level)
}

fn parse_primary(c: &mut Cursor, level: u32) -> Parsed {
    let Some(t) = c.bump() else {
        return Err(AsmDiagnostic::new(
            codes::SYNTAX,
            c.here(),
            "expected expression, found end of line",
        ));
    };
    match &t.tok {
        Tok::Int(v) => Ok((Expr::Int(*v, t.span), level)),
        Tok::Ident(name) if (name == "lo" || name == "hi") && starts_paren(c) => {
            c.expect(&Tok::LParen, "`(`")?;
            let (inner, deepest) = parse_sum(c, within(level + 1, t.span)?)?;
            let close = c.expect(&Tok::RParen, "`)`")?;
            let span = t.span.to(close);
            let e = if name == "lo" {
                Expr::Lo(Box::new(inner), span)
            } else {
                Expr::Hi(Box::new(inner), span)
            };
            Ok((e, deepest))
        }
        Tok::Ident(name) => Ok((Expr::Sym(name.clone(), t.span), level)),
        Tok::LParen => {
            let (inner, deepest) = parse_sum(c, within(level + 1, t.span)?)?;
            let close = c.expect(&Tok::RParen, "`)`")?;
            let span = t.span.to(close);
            // Keep the grouped span so diagnostics cover the parens.
            let e = match inner {
                Expr::Bin(op, a, b, _) => Expr::Bin(op, a, b, span),
                other => other,
            };
            Ok((e, deepest))
        }
        other => Err(AsmDiagnostic::new(
            codes::SYNTAX,
            t.span,
            format!("expected expression, found `{}`", describe(other)),
        )),
    }
}

fn starts_paren(c: &Cursor) -> bool {
    c.peek().is_some_and(|t| t.tok == Tok::LParen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::lexer::lex;

    fn eval_str(text: &str, resolve: &dyn Fn(&str) -> Option<i64>) -> Result<i64, AsmDiagnostic> {
        let (tokens, diags) = lex(text);
        assert!(diags.is_empty());
        let line: Vec<Token> = tokens
            .into_iter()
            .filter(|t| t.tok != Tok::Newline)
            .collect();
        let mut c = Cursor::new(&line, Span::at(1, 1));
        let e = parse(&mut c)?;
        assert!(c.at_end(), "trailing tokens after expression");
        e.eval(resolve)
    }

    fn eval_const(text: &str) -> i64 {
        eval_str(text, &|_| None).expect("evaluates")
    }

    #[test]
    fn precedence_and_grouping() {
        assert_eq!(eval_const("1+2*3"), 7);
        assert_eq!(eval_const("(1+2)*3"), 9);
        assert_eq!(eval_const("10-4-3"), 3); // left associative
        assert_eq!(eval_const("7/2"), 3);
        assert_eq!(eval_const("-3+10"), 7);
        assert_eq!(eval_const("- -5"), 5);
    }

    #[test]
    fn lo_hi_split_an_address() {
        let resolve = |name: &str| (name == "buf").then_some(0x0004_0007);
        assert_eq!(eval_str("lo(buf)", &resolve).unwrap(), 7);
        assert_eq!(eval_str("hi(buf)", &resolve).unwrap(), 4);
        assert_eq!(eval_str("lo(buf)+4", &resolve).unwrap(), 11);
    }

    #[test]
    fn lo_without_parens_is_a_plain_symbol() {
        let resolve = |name: &str| (name == "lo").then_some(42);
        assert_eq!(eval_str("lo", &resolve).unwrap(), 42);
    }

    #[test]
    fn undefined_symbol_is_e106_at_its_span() {
        let err = eval_str("2*nope", &|_| None).unwrap_err();
        assert_eq!(err.code, codes::UNDEFINED_SYMBOL);
        assert_eq!(err.span.col, 3);
        assert_eq!(err.span.len, 4);
    }

    #[test]
    fn division_by_zero_and_overflow_are_diagnostics() {
        assert_eq!(
            eval_str("1/0", &|_| None).unwrap_err().code,
            codes::BAD_EXPRESSION
        );
        let big = i64::MAX.to_string();
        assert_eq!(
            eval_str(&format!("{big}+1"), &|_| None).unwrap_err().code,
            codes::BAD_EXPRESSION
        );
    }

    #[test]
    fn nesting_stops_at_the_depth_limit() {
        // The whole expression is one level; each of these adds one more.
        let n = MAX_EXPR_DEPTH as usize - 1;
        let parens = |n| "(".repeat(n) + "1" + &")".repeat(n);
        let minuses = |n| "-".repeat(n) + "1";
        let chain = |n| "1+".repeat(n) + "1";
        assert_eq!(eval_const(&parens(n)), 1);
        assert_eq!(eval_const(&minuses(n)), (-1i64).pow(n as u32));
        assert_eq!(eval_const(&chain(n)), n as i64 + 1);
        for text in [parens(n + 1), minuses(n + 1), chain(n + 1)] {
            let err = eval_str(&text, &|_| None).unwrap_err();
            assert_eq!(err.code, codes::BAD_EXPRESSION, "{text}");
        }
    }

    #[test]
    fn a_hundred_thousand_levels_assemble_to_e110() {
        let n = 100_000;
        let deep = [
            "(".repeat(n) + "1" + &")".repeat(n),
            "-".repeat(n) + "1",
            "1+".repeat(n) + "1",
        ];
        for e in deep {
            let text = format!("func! main\n  li r1, {e}\n  halt\nend\n");
            let diags = crate::asm::assemble(&text).unwrap_err();
            let found: Vec<_> = diags.iter().map(|d| d.code).collect();
            assert_eq!(found, [codes::BAD_EXPRESSION], "{}", &e[..8]);
        }
    }

    #[test]
    fn syntax_errors_carry_spans() {
        let (tokens, _) = lex("1+*2");
        let line: Vec<Token> = tokens
            .into_iter()
            .filter(|t| t.tok != Tok::Newline)
            .collect();
        let mut c = Cursor::new(&line, Span::at(1, 5));
        let err = parse(&mut c).unwrap_err();
        assert_eq!(err.code, codes::SYNTAX);
        assert_eq!(err.span.col, 3);
    }
}
