//! A minimal XML tokenizer and escaping helpers, sufficient for GridML.
//!
//! Supported: the `<?xml …?>` declaration, comments, elements with
//! double-quoted attributes, self-closing tags, the five standard entity
//! escapes. Text content between elements is ignored (GridML carries data
//! only in attributes). Not supported (not needed): CDATA, DTDs,
//! namespaces, processing instructions beyond the declaration.

use std::fmt::Write as _;

/// One token of the XML stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// `<NAME attr="v" …>` — `self_closing` for `<NAME …/>`.
    Open { name: String, attrs: Vec<(String, String)>, self_closing: bool },
    /// `</NAME>`
    Close { name: String },
}

/// Escape a string for use inside a double-quoted attribute.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

/// Undo [`escape`]. Unknown entities are left verbatim.
pub(crate) fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find('&') {
        out.push_str(&rest[..pos]);
        rest = &rest[pos..];
        let known =
            [("&amp;", '&'), ("&lt;", '<'), ("&gt;", '>'), ("&quot;", '"'), ("&apos;", '\'')];
        if let Some((ent, ch)) = known.iter().find(|(e, _)| rest.starts_with(e)) {
            out.push(*ch);
            rest = &rest[ent.len()..];
        } else {
            out.push('&');
            rest = &rest[1..];
        }
    }
    out.push_str(rest);
    out
}

/// Render an opening tag with attributes.
pub(crate) fn open_tag(name: &str, attrs: &[(&str, &str)], self_closing: bool) -> String {
    let mut s = String::new();
    let _ = write!(s, "<{name}");
    for (k, v) in attrs {
        let _ = write!(s, " {k}=\"{}\"", escape(v));
    }
    s.push_str(if self_closing { " />" } else { ">" });
    s
}

/// Tokenizer error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XML error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XmlError {}

/// Tokenize an XML document into open/close tags, skipping text content,
/// comments and the declaration.
pub(crate) fn tokenize(input: &str) -> Result<Vec<Token>, XmlError> {
    let bytes = input.as_bytes();
    let mut i = 0usize;
    let mut tokens = Vec::new();

    let err = |offset: usize, message: &str| XmlError { offset, message: message.to_string() };

    while i < bytes.len() {
        match bytes[i] {
            b'<' => {
                if input[i..].starts_with("<!--") {
                    match input[i..].find("-->") {
                        Some(end) => i += end + 3,
                        None => return Err(err(i, "unterminated comment")),
                    }
                    continue;
                }
                if input[i..].starts_with("<?") {
                    match input[i..].find("?>") {
                        Some(end) => i += end + 2,
                        None => return Err(err(i, "unterminated declaration")),
                    }
                    continue;
                }
                if input[i..].starts_with("</") {
                    let end =
                        input[i..].find('>').ok_or_else(|| err(i, "unterminated closing tag"))?;
                    let name = input[i + 2..i + end].trim();
                    if name.is_empty() {
                        return Err(err(i, "empty closing tag"));
                    }
                    tokens.push(Token::Close { name: name.to_string() });
                    i += end + 1;
                    continue;
                }
                // Opening tag.
                let end = input[i..].find('>').ok_or_else(|| err(i, "unterminated tag"))?;
                let inner = &input[i + 1..i + end];
                let self_closing = inner.trim_end().ends_with('/');
                let inner = inner.trim_end().trim_end_matches('/').trim();
                let (name, attrs) = parse_tag_body(inner).map_err(|m| err(i, &m))?;
                tokens.push(Token::Open { name, attrs, self_closing });
                i += end + 1;
            }
            _ => i += 1, // text content between elements is ignored
        }
    }
    Ok(tokens)
}

/// Split `NAME attr="v" attr2="w"` into name and attribute pairs.
fn parse_tag_body(body: &str) -> Result<(String, Vec<(String, String)>), String> {
    // Element name: up to whitespace.
    let name_end = body.find(|c: char| c.is_whitespace()).unwrap_or(body.len());
    let name = body[..name_end].to_string();
    if name.is_empty() {
        return Err("empty tag name".to_string());
    }
    let mut attrs = Vec::new();
    let mut r = body[name_end..].trim_start();
    while !r.is_empty() {
        let eq = r.find('=').ok_or_else(|| format!("attribute without '=' in <{name}>"))?;
        let key = r[..eq].trim().to_string();
        if key.is_empty() || key.contains(char::is_whitespace) {
            return Err(format!("malformed attribute name in <{name}>"));
        }
        let after = r[eq + 1..].trim_start();
        if !after.starts_with('"') {
            return Err(format!("attribute value must be double-quoted in <{name}>"));
        }
        let close = after[1..]
            .find('"')
            .ok_or_else(|| format!("unterminated attribute value in <{name}>"))?;
        let value = unescape(&after[1..1 + close]);
        attrs.push((key, value));
        r = after[close + 2..].trim_start();
    }
    Ok((name, attrs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trip() {
        let s = "a<b>&\"c'";
        assert_eq!(unescape(&escape(s)), s);
        assert_eq!(escape("a&b"), "a&amp;b");
        assert_eq!(unescape("&bogus;"), "&bogus;");
    }

    #[test]
    fn tokenize_simple_document() {
        let toks = tokenize(
            r#"<?xml version="1.0"?>
<GRID>
  <!-- comment -->
  <SITE domain="ens-lyon.fr">
    <LABEL name="ENS-LYON-FR" />
  </SITE>
</GRID>"#,
        )
        .unwrap();
        assert_eq!(toks.len(), 5);
        match &toks[0] {
            Token::Open { name, attrs, self_closing } => {
                assert_eq!(name, "GRID");
                assert!(attrs.is_empty());
                assert!(!self_closing);
            }
            _ => panic!("expected open"),
        }
        match &toks[2] {
            Token::Open { name, attrs, self_closing } => {
                assert_eq!(name, "LABEL");
                assert_eq!(attrs[0], ("name".to_string(), "ENS-LYON-FR".to_string()));
                assert!(self_closing);
            }
            _ => panic!("expected self-closing label"),
        }
        assert_eq!(toks[4], Token::Close { name: "GRID".to_string() });
    }

    #[test]
    fn tokenize_escaped_attribute() {
        let toks = tokenize(r#"<X name="a&amp;b" />"#).unwrap();
        match &toks[0] {
            Token::Open { attrs, .. } => assert_eq!(attrs[0].1, "a&b"),
            _ => panic!(),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(tokenize("<unclosed").is_err());
        assert!(tokenize("<!-- forever").is_err());
        assert!(tokenize("<X attr=unquoted>").is_err());
        assert!(tokenize("<X attr=\"unterminated>").is_err());
        assert!(tokenize("</>").is_err());
    }

    #[test]
    fn open_tag_rendering() {
        assert_eq!(open_tag("LABEL", &[("name", "a<b")], true), r#"<LABEL name="a&lt;b" />"#);
        assert_eq!(open_tag("GRID", &[], false), "<GRID>");
    }

    #[test]
    fn multiple_attributes() {
        let toks =
            tokenize(r#"<PROPERTY name="CPU_clock" value="198.951" units="MHz" />"#).unwrap();
        match &toks[0] {
            Token::Open { attrs, .. } => {
                assert_eq!(attrs.len(), 3);
                assert_eq!(attrs[2], ("units".to_string(), "MHz".to_string()));
            }
            _ => panic!(),
        }
    }
}
