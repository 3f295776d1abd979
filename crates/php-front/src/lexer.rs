use crate::error::ParseError;
use crate::span::Span;
use crate::token::{StrPart, Token, TokenKind};

/// Tokenizes PHP source text on demand.
///
/// The lexer starts in HTML mode, yielding [`TokenKind::InlineHtml`] for
/// text outside `<?php … ?>` regions. Inside PHP mode it yields the
/// tokens the [`Parser`](crate::Parser) consumes; a closing `?>` tag is
/// yielded as an implicit semicolon (matching PHP, where `?>`
/// terminates the current statement).
///
/// As an [`Iterator`] it yields every token through a final
/// [`TokenKind::Eof`], or up to and including the first error, and then
/// ends. Names and undecorated string literals borrow from the source.
///
/// # Examples
///
/// ```
/// use php_front::{Lexer, TokenKind};
///
/// let tokens = Lexer::new("<?php echo $x; ?>").tokenize()?;
/// assert_eq!(tokens[0].kind, TokenKind::Ident("echo"));
/// assert_eq!(tokens[1].kind, TokenKind::Variable("x"));
/// # Ok::<(), php_front::ParseError>(())
/// ```
#[derive(Debug)]
pub struct Lexer<'src> {
    src: &'src str,
    bytes: &'src [u8],
    pos: usize,
    mode: Mode,
    /// The `echo` a `<?=` tag stands for, due after the HTML before it.
    pending: Option<Token<'src>>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Before the next open tag.
    Html,
    /// Between an open tag and `?>`.
    Php,
    /// Input exhausted: the next token is `Eof`.
    End,
    /// `Eof` or an error has been yielded.
    Done,
}

impl<'src> Lexer<'src> {
    /// Creates a lexer over `source`.
    pub fn new(source: &'src str) -> Self {
        Lexer {
            src: source,
            bytes: source.as_bytes(),
            pos: 0,
            mode: Mode::Html,
            pending: None,
        }
    }

    /// Tokenizes the whole input, ending with a [`TokenKind::Eof`] token.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] on malformed input (unterminated string
    /// or comment, stray characters).
    pub fn tokenize(self) -> Result<Vec<Token<'src>>, ParseError> {
        self.collect()
    }

    /// The next token; [`TokenKind::Eof`] once the input is exhausted.
    fn next_token(&mut self) -> Result<Token<'src>, ParseError> {
        if let Some(t) = self.pending.take() {
            return Ok(t);
        }
        loop {
            match self.mode {
                Mode::Html => {
                    let (html, echo) = self.lex_html();
                    self.mode = if self.at_end() { Mode::End } else { Mode::Php };
                    match html {
                        Some(h) => {
                            self.pending = echo;
                            return Ok(h);
                        }
                        None => {
                            if let Some(e) = echo {
                                return Ok(e);
                            }
                        }
                    }
                }
                Mode::Php => {
                    self.skip_whitespace_and_comments()?;
                    if self.at_end() {
                        self.mode = Mode::End;
                        continue;
                    }
                    if self.starts_with("?>") {
                        let span = Span::new(self.pos as u32, self.pos as u32 + 2);
                        self.pos += 2;
                        // PHP treats `?>` as a statement terminator; skip
                        // one newline directly after it, as PHP does.
                        if self.peek() == b'\n' {
                            self.pos += 1;
                        }
                        self.mode = Mode::Html;
                        return Ok(Token::new(TokenKind::Semicolon, span));
                    }
                    let start = self.pos;
                    let kind = match self.peek() {
                        b'$' => self.lex_variable()?,
                        b'\'' => self.lex_single_quoted()?,
                        b'"' => self.lex_double_quoted()?,
                        b'<' if self.starts_with("<<<") => self.lex_heredoc()?,
                        b'0'..=b'9' => self.lex_number()?,
                        b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                            TokenKind::Ident(self.take_ident_text())
                        }
                        _ => self.lex_operator()?,
                    };
                    return Ok(Token::new(kind, Span::new(start as u32, self.pos as u32)));
                }
                Mode::End | Mode::Done => {
                    return Ok(Token::new(TokenKind::Eof, Span::point(self.pos as u32)))
                }
            }
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> u8 {
        self.bytes.get(self.pos).copied().unwrap_or(0)
    }

    fn peek_at(&self, off: usize) -> u8 {
        self.bytes.get(self.pos + off).copied().unwrap_or(0)
    }

    fn bump(&mut self) -> u8 {
        let b = self.peek();
        self.pos += 1;
        b
    }

    fn starts_with(&self, s: &str) -> bool {
        // Byte-based: `self.pos` may sit inside a multibyte character
        // while skipping comments or strings.
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    /// Consumes HTML text until an opening tag (which is also consumed)
    /// or end of input. Returns the HTML token, if the text is
    /// nonempty, and the `echo` a `<?=` tag stands for.
    fn lex_html(&mut self) -> (Option<Token<'src>>, Option<Token<'src>>) {
        let start = self.pos;
        let rest = &self.bytes[start..];
        let (html_end, open_len, is_echo) = match rest.windows(2).position(|w| w == b"<?") {
            Some(i) => {
                let after = &rest[i..];
                if after.starts_with(b"<?php") {
                    (start + i, 5, false)
                } else if after.starts_with(b"<?=") {
                    (start + i, 3, true)
                } else {
                    (start + i, 2, false)
                }
            }
            None => (self.bytes.len(), 0, false),
        };
        let html = (html_end > start).then(|| {
            Token::new(
                TokenKind::InlineHtml(&self.src[start..html_end]),
                Span::new(start as u32, html_end as u32),
            )
        });
        self.pos = html_end + open_len;
        let echo = is_echo.then(|| {
            Token::new(
                TokenKind::Ident("echo"),
                Span::new(html_end as u32, self.pos as u32),
            )
        });
        (html, echo)
    }

    fn skip_whitespace_and_comments(&mut self) -> Result<(), ParseError> {
        loop {
            while self.peek().is_ascii_whitespace() {
                self.pos += 1;
            }
            if self.starts_with("//") || self.peek() == b'#' {
                while !self.at_end() && self.peek() != b'\n' && !self.starts_with("?>") {
                    self.pos += 1;
                }
                continue;
            }
            if self.starts_with("/*") {
                let start = self.pos;
                self.pos += 2;
                match self.bytes[self.pos..].windows(2).position(|w| w == b"*/") {
                    Some(i) => self.pos += i + 2,
                    None => {
                        return Err(ParseError::new(
                            "unterminated block comment",
                            Span::new(start as u32, self.bytes.len() as u32),
                        ))
                    }
                }
                continue;
            }
            return Ok(());
        }
    }

    fn lex_variable(&mut self) -> Result<TokenKind<'src>, ParseError> {
        let start = self.pos;
        self.bump(); // $
        let name = self.take_ident_text();
        if name.is_empty() {
            return Err(ParseError::new(
                "expected variable name after `$`",
                Span::new(start as u32, self.pos as u32),
            ));
        }
        Ok(TokenKind::Variable(name))
    }

    fn take_ident_text(&mut self) -> &'src str {
        let start = self.pos;
        while matches!(self.peek(), b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_') {
            self.pos += 1;
        }
        &self.src[start..self.pos]
    }

    fn lex_number(&mut self) -> Result<TokenKind<'src>, ParseError> {
        let start = self.pos;
        if self.starts_with("0x") || self.starts_with("0X") {
            self.pos += 2;
            while self.peek().is_ascii_hexdigit() {
                self.pos += 1;
            }
            let text = &self.src[start + 2..self.pos];
            let value = i64::from_str_radix(text, 16).map_err(|_| {
                ParseError::new(
                    "invalid hexadecimal literal",
                    Span::new(start as u32, self.pos as u32),
                )
            })?;
            return Ok(TokenKind::IntLit(value));
        }
        while self.peek().is_ascii_digit() {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == b'.' && self.peek_at(1).is_ascii_digit() {
            is_float = true;
            self.pos += 1;
            while self.peek().is_ascii_digit() {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), b'e' | b'E')
            && (self.peek_at(1).is_ascii_digit()
                || (matches!(self.peek_at(1), b'+' | b'-') && self.peek_at(2).is_ascii_digit()))
        {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), b'+' | b'-') {
                self.pos += 1;
            }
            while self.peek().is_ascii_digit() {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            let value: f64 = text.parse().map_err(|_| {
                ParseError::new(
                    "invalid float literal",
                    Span::new(start as u32, self.pos as u32),
                )
            })?;
            Ok(TokenKind::FloatLit(value))
        } else {
            let value: i64 = text.parse().map_err(|_| {
                ParseError::new(
                    "integer literal out of range",
                    Span::new(start as u32, self.pos as u32),
                )
            })?;
            Ok(TokenKind::IntLit(value))
        }
    }

    fn lex_single_quoted(&mut self) -> Result<TokenKind<'src>, ParseError> {
        let start = self.pos;
        self.bump(); // '
        let body = self.pos;
        // Escapes copy the text; a literal without any stays borrowed.
        let mut text = String::new();
        let mut run = self.pos;
        loop {
            if self.at_end() {
                return Err(unterminated_string(start, self.pos));
            }
            match self.bump() {
                b'\'' => break,
                b'\\' => {
                    text.push_str(&self.src[run..self.pos - 1]);
                    if self.at_end() {
                        return Err(unterminated_string(start, self.pos));
                    }
                    match self.peek() {
                        q @ (b'\'' | b'\\') => {
                            text.push(q as char);
                            self.pos += 1;
                        }
                        // PHP keeps unknown escapes verbatim in
                        // single-quoted strings.
                        _ => text.push('\\'),
                    }
                    run = self.pos;
                }
                _ => {}
            }
        }
        let end = self.pos - 1;
        if text.is_empty() {
            return Ok(TokenKind::PlainString(&self.src[body..end]));
        }
        text.push_str(&self.src[run..end]);
        Ok(TokenKind::StringLit(vec![StrPart::Lit(text)]))
    }

    fn lex_double_quoted(&mut self) -> Result<TokenKind<'src>, ParseError> {
        let start = self.pos;
        self.bump(); // "
        let body = self.pos;
        let mut parts: Vec<StrPart> = Vec::new();
        // Literal text since the last part; `run` starts the stretch not
        // yet copied into it.
        let mut text = String::new();
        let mut run = self.pos;
        let flush = |text: &mut String, parts: &mut Vec<StrPart>, tail: &str| {
            text.push_str(tail);
            if !text.is_empty() {
                parts.push(StrPart::Lit(std::mem::take(text)));
            }
        };
        loop {
            if self.at_end() {
                return Err(unterminated_string(start, self.pos));
            }
            match self.peek() {
                b'"' => break,
                b'\\' => {
                    text.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    if self.at_end() {
                        return Err(unterminated_string(start, self.pos));
                    }
                    let esc = self.peek();
                    match esc {
                        b'n' => text.push('\n'),
                        b't' => text.push('\t'),
                        b'r' => text.push('\r'),
                        b'"' => text.push('"'),
                        b'\\' => text.push('\\'),
                        b'$' => text.push('$'),
                        b'0' => text.push('\0'),
                        other => {
                            text.push('\\');
                            if other.is_ascii() {
                                text.push(other as char);
                            }
                        }
                    }
                    // A non-ASCII character after an unknown escape
                    // stays in the literal run.
                    if esc.is_ascii() {
                        self.pos += 1;
                    }
                    run = self.pos;
                }
                b'$' if matches!(self.peek_at(1), b'a'..=b'z' | b'A'..=b'Z' | b'_') => {
                    flush(&mut text, &mut parts, &self.src[run..self.pos]);
                    self.pos += 1;
                    let name = self.take_ident_text().to_owned();
                    parts.push(self.interpolated_index(name));
                    run = self.pos;
                }
                b'$' if self.peek_at(1) == b'{' => {
                    // `${name}` interpolation.
                    flush(&mut text, &mut parts, &self.src[run..self.pos]);
                    self.pos += 2;
                    let name = self.take_ident_text().to_owned();
                    if self.peek() == b'}' {
                        self.pos += 1;
                    }
                    parts.push(StrPart::Var(name));
                    run = self.pos;
                }
                b'{' if self.peek_at(1) == b'$' => {
                    // `{$name}` or `{$arr['k']}` interpolation.
                    flush(&mut text, &mut parts, &self.src[run..self.pos]);
                    self.pos += 2;
                    let name = self.take_ident_text().to_owned();
                    if self.peek() == b'[' {
                        self.pos += 1;
                        let idx_start = self.pos;
                        while !self.at_end() && self.peek() != b']' {
                            self.pos += 1;
                        }
                        let index = self.src[idx_start..self.pos].trim_matches('\'').to_owned();
                        if self.peek() == b']' {
                            self.pos += 1;
                        }
                        parts.push(StrPart::ArrayVar { var: name, index });
                    } else {
                        parts.push(StrPart::Var(name));
                    }
                    if self.peek() == b'}' {
                        self.pos += 1;
                    }
                    run = self.pos;
                }
                _ => self.pos += 1,
            }
        }
        let end = self.pos;
        self.pos += 1; // "
        if parts.is_empty() && text.is_empty() {
            // Nothing escaped or interpolated (every escape adds text).
            return Ok(if end > body {
                TokenKind::PlainString(&self.src[body..end])
            } else {
                TokenKind::StringLit(Vec::new())
            });
        }
        flush(&mut text, &mut parts, &self.src[run..end]);
        Ok(TokenKind::StringLit(parts))
    }

    /// After `$name` in a double-quoted string: a simple `$arr[index]`
    /// interpolation if a `]` closes it before the string does, else
    /// the plain variable.
    fn interpolated_index(&mut self, name: String) -> StrPart {
        if self.peek() == b'[' {
            let save = self.pos;
            self.pos += 1;
            let idx_start = self.pos;
            while !self.at_end() && self.peek() != b']' && self.peek() != b'"' {
                self.pos += 1;
            }
            if self.peek() == b']' {
                let index = self.src[idx_start..self.pos].trim_matches('\'').to_owned();
                self.pos += 1;
                return StrPart::ArrayVar { var: name, index };
            }
            self.pos = save;
        }
        StrPart::Var(name)
    }

    /// Heredoc strings: `<<<EOT … EOT;` (interpolating) and the
    /// single-quoted nowdoc form `<<<'EOT'` (literal).
    fn lex_heredoc(&mut self) -> Result<TokenKind<'src>, ParseError> {
        let start = self.pos;
        self.pos += 3; // <<<
        let nowdoc = self.peek() == b'\'';
        if nowdoc {
            self.pos += 1;
        }
        let tag = self.take_ident_text();
        if tag.is_empty() {
            return Err(ParseError::new(
                "expected heredoc identifier after `<<<`",
                Span::new(start as u32, self.pos as u32),
            ));
        }
        if nowdoc {
            if self.peek() != b'\'' {
                return Err(ParseError::new(
                    "unterminated nowdoc identifier quote",
                    Span::new(start as u32, self.pos as u32),
                ));
            }
            self.pos += 1;
        }
        // Skip to end of the opener line.
        while !self.at_end() && self.peek() != b'\n' {
            self.pos += 1;
        }
        if !self.at_end() {
            self.pos += 1;
        }
        // The body runs up to a line that starts with the tag; every
        // body line ends in a newline, or the input ran out first.
        let body_start = self.pos;
        let body_end = loop {
            if self.at_end() {
                return Err(ParseError::new(
                    format!("unterminated heredoc (expected closing {tag})"),
                    Span::new(start as u32, self.pos as u32),
                ));
            }
            let line_start = self.pos;
            while !self.at_end() && self.peek() != b'\n' {
                self.pos += 1;
            }
            let line = &self.src[line_start..self.pos];
            if !self.at_end() {
                self.pos += 1; // newline
            }
            if let Some(rest) = line.trim_start().strip_prefix(tag) {
                if rest.is_empty() || rest == ";" {
                    if rest == ";" {
                        // Rewind onto the `;` so it is lexed as the
                        // statement terminator.
                        self.pos = line_start + line.len() - 1;
                    }
                    break line_start;
                }
            }
        };
        let body = &self.src[body_start..body_end];
        if nowdoc {
            return Ok(TokenKind::PlainString(body));
        }
        Ok(Self::interpolate_text(body))
    }

    /// Splits heredoc text into interpolation parts (`$var`,
    /// `$arr[key]`, `{$var}`), borrowing it whole when it has none.
    fn interpolate_text(text: &'src str) -> TokenKind<'src> {
        let bytes = text.as_bytes();
        let mut parts = Vec::new();
        let mut lit = String::new();
        let mut run = 0usize;
        let mut i = 0usize;
        let ident_start = |b: u8| matches!(b, b'a'..=b'z' | b'A'..=b'Z' | b'_');
        let take_ident = |mut j: usize| -> (String, usize) {
            let s = j;
            while j < bytes.len()
                && matches!(bytes[j], b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_')
            {
                j += 1;
            }
            (text[s..j].to_owned(), j)
        };
        let flush = |lit: &mut String, parts: &mut Vec<StrPart>, tail: &str| {
            lit.push_str(tail);
            if !lit.is_empty() {
                parts.push(StrPart::Lit(std::mem::take(lit)));
            }
        };
        while i < bytes.len() {
            let b = bytes[i];
            if b == b'\\' && i + 1 < bytes.len() {
                lit.push_str(&text[run..i]);
                let esc = bytes[i + 1];
                match esc {
                    b'n' => lit.push('\n'),
                    b't' => lit.push('\t'),
                    b'$' => lit.push('$'),
                    b'\\' => lit.push('\\'),
                    other => {
                        lit.push('\\');
                        if other.is_ascii() {
                            lit.push(other as char);
                        }
                    }
                }
                // A non-ASCII character after an unknown escape stays
                // in the literal run.
                i += if esc.is_ascii() { 2 } else { 1 };
                run = i;
                continue;
            }
            if b == b'$' && i + 1 < bytes.len() && ident_start(bytes[i + 1]) {
                flush(&mut lit, &mut parts, &text[run..i]);
                let (name, j) = take_ident(i + 1);
                i = j;
                let close = (i < bytes.len() && bytes[i] == b'[')
                    .then(|| text[i..].find(']'))
                    .flatten();
                match close {
                    Some(close) => {
                        let index = text[i + 1..i + close].trim_matches('\'').to_owned();
                        parts.push(StrPart::ArrayVar { var: name, index });
                        i += close + 1;
                    }
                    None => parts.push(StrPart::Var(name)),
                }
                run = i;
                continue;
            }
            if b == b'{' && i + 1 < bytes.len() && bytes[i + 1] == b'$' {
                flush(&mut lit, &mut parts, &text[run..i]);
                let (name, j) = take_ident(i + 2);
                i = j;
                if let Some(close) = text[i..].find('}') {
                    i += close + 1;
                }
                parts.push(StrPart::Var(name));
                run = i;
                continue;
            }
            i += 1;
        }
        if parts.is_empty() && lit.is_empty() {
            // Nothing escaped or interpolated (every escape adds text).
            return if text.is_empty() {
                TokenKind::StringLit(Vec::new())
            } else {
                TokenKind::PlainString(text)
            };
        }
        flush(&mut lit, &mut parts, &text[run..]);
        TokenKind::StringLit(parts)
    }

    fn lex_operator(&mut self) -> Result<TokenKind<'src>, ParseError> {
        use TokenKind::*;
        // Longest match first.
        let (kind, len) = match (self.peek(), self.peek_at(1), self.peek_at(2)) {
            (b'=', b'=', b'=') => (EqEqEq, 3),
            (b'=', b'=', _) => (EqEq, 2),
            (b'=', b'>', _) => (DoubleArrow, 2),
            (b'=', _, _) => (Assign, 1),
            (b'!', b'=', b'=') => (NotEqEq, 3),
            (b'!', b'=', _) => (NotEq, 2),
            (b'!', _, _) => (Not, 1),
            (b'<', b'>', _) => (NotEq, 2),
            (b'<', b'=', _) => (Le, 2),
            (b'<', _, _) => (Lt, 1),
            (b'>', b'=', _) => (Ge, 2),
            (b'>', _, _) => (Gt, 1),
            (b'&', b'&', _) => (AndAnd, 2),
            (b'&', _, _) => (Amp, 1),
            (b'|', b'|', _) => (OrOr, 2),
            (b'+', b'+', _) => (Inc, 2),
            (b'+', b'=', _) => (PlusAssign, 2),
            (b'+', _, _) => (Plus, 1),
            (b'-', b'-', _) => (Dec, 2),
            (b'-', b'=', _) => (MinusAssign, 2),
            (b'-', b'>', _) => (Arrow, 2),
            (b'-', _, _) => (Minus, 1),
            (b'*', b'=', _) => (MulAssign, 2),
            (b'*', _, _) => (Star, 1),
            (b'/', b'=', _) => (DivAssign, 2),
            (b'/', _, _) => (Slash, 1),
            (b'.', b'=', _) => (DotAssign, 2),
            (b'.', _, _) => (Dot, 1),
            (b'%', _, _) => (Percent, 1),
            (b'?', _, _) => (Question, 1),
            (b':', _, _) => (Colon, 1),
            (b';', _, _) => (Semicolon, 1),
            (b',', _, _) => (Comma, 1),
            (b'(', _, _) => (LParen, 1),
            (b')', _, _) => (RParen, 1),
            (b'{', _, _) => (LBrace, 1),
            (b'}', _, _) => (RBrace, 1),
            (b'[', _, _) => (LBracket, 1),
            (b']', _, _) => (RBracket, 1),
            (b'@', _, _) => (At, 1),
            _ => {
                // Tokens end on character boundaries, so the stray
                // character starts here; name all of its bytes.
                let c = self.src[self.pos..].chars().next().unwrap_or('\0');
                return Err(ParseError::new(
                    format!("unexpected character `{c}`"),
                    Span::new(self.pos as u32, (self.pos + c.len_utf8()) as u32),
                ));
            }
        };
        self.pos += len;
        Ok(kind)
    }
}

fn unterminated_string(start: usize, end: usize) -> ParseError {
    ParseError::new(
        "unterminated string literal",
        Span::new(start as u32, end as u32),
    )
}

impl<'src> Iterator for Lexer<'src> {
    type Item = Result<Token<'src>, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.mode == Mode::Done {
            return None;
        }
        let item = self.next_token();
        if matches!(&item, Ok(t) if t.kind == TokenKind::Eof) || item.is_err() {
            self.mode = Mode::Done;
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        Lexer::new(src)
            .tokenize()
            .expect("lex ok")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn html_only_input() {
        let ks = kinds("<html><body>hi</body></html>");
        assert_eq!(ks.len(), 2);
        assert!(matches!(ks[0], TokenKind::InlineHtml(h) if h.contains("hi")));
        assert_eq!(ks[1], TokenKind::Eof);
    }

    #[test]
    fn php_basic_tokens() {
        let ks = kinds("<?php $x = 42; ?>");
        assert_eq!(
            ks,
            vec![
                TokenKind::Variable("x"),
                TokenKind::Assign,
                TokenKind::IntLit(42),
                TokenKind::Semicolon,
                TokenKind::Semicolon, // from ?>
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn html_php_html_alternation() {
        let ks = kinds("<p><?php echo 1; ?></p>");
        assert!(matches!(&ks[0], TokenKind::InlineHtml(_)));
        assert!(ks.iter().any(|k| k.is_ident("echo")));
        assert!(matches!(ks[ks.len() - 2], TokenKind::InlineHtml(_)));
    }

    #[test]
    fn echo_shorthand_tag() {
        let ks = kinds("<?= $x ?>");
        assert!(ks[0].is_ident("echo"));
        assert_eq!(ks[1], TokenKind::Variable("x"));
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("<?php // line\n# hash\n/* block\nstill */ $x;");
        assert_eq!(ks[0], TokenKind::Variable("x"));
    }

    #[test]
    fn unterminated_block_comment_errors() {
        let err = Lexer::new("<?php /* oops").tokenize().unwrap_err();
        assert!(err.message.contains("unterminated block comment"));
    }

    #[test]
    fn single_quoted_string_has_no_interpolation() {
        let ks = kinds(r#"<?php $q = 'sid=$sid';"#);
        assert_eq!(ks[2], TokenKind::PlainString("sid=$sid"));
    }

    #[test]
    fn double_quoted_string_interpolates_variables() {
        let ks = kinds(r#"<?php $q = "SELECT * FROM g WHERE sid=$sid";"#);
        match &ks[2] {
            TokenKind::StringLit(parts) => {
                assert_eq!(
                    parts,
                    &vec![
                        StrPart::Lit("SELECT * FROM g WHERE sid=".into()),
                        StrPart::Var("sid".into()),
                    ]
                );
            }
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn braced_and_array_interpolation() {
        let ks = kinds(r#"<?php $q = "a{$x}b${y}c$row[name]d";"#);
        match &ks[2] {
            TokenKind::StringLit(parts) => {
                assert_eq!(
                    parts,
                    &vec![
                        StrPart::Lit("a".into()),
                        StrPart::Var("x".into()),
                        StrPart::Lit("b".into()),
                        StrPart::Var("y".into()),
                        StrPart::Lit("c".into()),
                        StrPart::ArrayVar {
                            var: "row".into(),
                            index: "name".into()
                        },
                        StrPart::Lit("d".into()),
                    ]
                );
            }
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn escapes_in_double_quoted_strings() {
        let ks = kinds(r#"<?php $s = "a\n\t\"\$b";"#);
        match &ks[2] {
            TokenKind::StringLit(parts) => {
                assert_eq!(parts, &vec![StrPart::Lit("a\n\t\"$b".into())]);
            }
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn unterminated_string_errors() {
        let err = Lexer::new("<?php $x = \"abc").tokenize().unwrap_err();
        assert!(err.message.contains("unterminated string"));
    }

    #[test]
    fn numbers_int_float_hex() {
        let ks = kinds("<?php 1 23 4.5 1e3 2.5e-1 0xFF;");
        assert_eq!(ks[0], TokenKind::IntLit(1));
        assert_eq!(ks[1], TokenKind::IntLit(23));
        assert_eq!(ks[2], TokenKind::FloatLit(4.5));
        assert_eq!(ks[3], TokenKind::FloatLit(1000.0));
        assert_eq!(ks[4], TokenKind::FloatLit(0.25));
        assert_eq!(ks[5], TokenKind::IntLit(255));
    }

    #[test]
    fn operators_longest_match() {
        let ks = kinds("<?php === == = != !== <= < .= . -> =>;");
        assert_eq!(
            &ks[..10],
            &[
                TokenKind::EqEqEq,
                TokenKind::EqEq,
                TokenKind::Assign,
                TokenKind::NotEq,
                TokenKind::NotEqEq,
                TokenKind::Le,
                TokenKind::Lt,
                TokenKind::DotAssign,
                TokenKind::Dot,
                TokenKind::Arrow,
            ]
        );
    }

    #[test]
    fn variable_requires_name() {
        let err = Lexer::new("<?php $ = 3;").tokenize().unwrap_err();
        assert!(err.message.contains("variable name"));
    }

    #[test]
    fn stray_character_errors() {
        let err = Lexer::new("<?php ^;").tokenize().unwrap_err();
        assert!(err.message.contains("unexpected character"));
    }

    #[test]
    fn stray_non_ascii_character_is_named_whole() {
        let src = "<?php $x = 1; \u{e9};";
        let err = Lexer::new(src).tokenize().unwrap_err();
        assert_eq!(err.message, "unexpected character `\u{e9}`");
        assert_eq!(err.span.slice(src), "\u{e9}");
    }

    #[test]
    fn backslash_at_eof_error_span_ends_at_the_source() {
        for src in ["<?php $x = 'abc\\", "<?php $x = \"abc\\"] {
            let err = Lexer::new(src).tokenize().unwrap_err();
            assert!(err.message.contains("unterminated string"), "{src}");
            assert_eq!(err.span.slice(src), &src[11..], "{src}");
        }
    }

    #[test]
    fn spans_are_accurate() {
        let src = "<?php $abc;";
        let tokens = Lexer::new(src).tokenize().unwrap();
        assert_eq!(tokens[0].span.slice(src), "$abc");
        assert_eq!(tokens[1].span.slice(src), ";");
    }

    #[test]
    fn superglobal_tokens() {
        let ks = kinds("<?php $_GET['sid'];");
        assert_eq!(ks[0], TokenKind::Variable("_GET"));
        assert_eq!(ks[1], TokenKind::LBracket);
        assert_eq!(ks[2], TokenKind::PlainString("sid"));
    }

    #[test]
    fn hash_comment_stops_at_close_tag() {
        let ks = kinds("<?php # note ?>after");
        // The close tag terminates the comment and PHP mode.
        assert_eq!(ks[1], TokenKind::InlineHtml("after"));
    }
}
