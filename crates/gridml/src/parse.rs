//! GridML parsing: token stream → [`GridDoc`].
//!
//! Parsing is lenient where the paper's examples are loose (a `MACHINE`
//! element may be a full declaration or a bare `name=` reference; labels
//! may carry `ip`, `name` or both) and strict about structure (tags must
//! nest properly).

use std::fmt;

use crate::xml::{tokenize, Token, XmlError};
use crate::{GridDoc, Machine, Network, NetworkType, Property, Site};

/// Error from [`GridDoc::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Lexical error from the tokenizer.
    Xml(XmlError),
    /// Structural error (bad nesting, unexpected element).
    Structure(String),
    /// A property carrying a physical quantity (bandwidth, capacity,
    /// latency, jam ratio) holds a value that would poison downstream
    /// arithmetic: unparseable, non-finite, or negative.
    Numeric { property: String, value: String, reason: &'static str },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Xml(e) => write!(f, "{e}"),
            ParseError::Structure(m) => write!(f, "GridML structure error: {m}"),
            ParseError::Numeric { property, value, reason } => {
                write!(f, "GridML numeric property error: {property}={value:?} is {reason}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<XmlError> for ParseError {
    fn from(e: XmlError) -> Self {
        ParseError::Xml(e)
    }
}

fn structure(msg: impl Into<String>) -> ParseError {
    ParseError::Structure(msg.into())
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// Attributes of a LABEL plus the names of its ALIAS children.
type LabelParts = (Vec<(String, String)>, Vec<String>);

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    /// Consume the next token by moving it out (nothing reads a consumed
    /// position again), leaving an empty, allocation-free placeholder.
    fn next(&mut self) -> Option<Token> {
        let slot = self.tokens.get_mut(self.pos)?;
        self.pos += 1;
        Some(std::mem::replace(slot, Token::Close { name: String::new() }))
    }

    fn expect_close(&mut self, name: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(Token::Close { name: n }) if n == name => Ok(()),
            other => Err(structure(format!("expected </{name}>, got {other:?}"))),
        }
    }

    fn parse_grid(&mut self) -> Result<GridDoc, ParseError> {
        match self.next() {
            Some(Token::Open { name, self_closing: false, .. }) if name == "GRID" => {}
            other => return Err(structure(format!("expected <GRID>, got {other:?}"))),
        }
        let mut doc = GridDoc::new();
        loop {
            match self.peek() {
                Some(Token::Open { name, .. }) if name == "LABEL" => {
                    let attrs = self.take_label()?;
                    doc.label = attr(&attrs, "name");
                }
                Some(Token::Open { name, .. }) if name == "SITE" => {
                    doc.sites.push(self.parse_site()?);
                }
                Some(Token::Close { name }) if name == "GRID" => {
                    self.next();
                    return Ok(doc);
                }
                other => return Err(structure(format!("unexpected {other:?} in <GRID>"))),
            }
        }
    }

    /// Consume a LABEL element (self-closing or with ALIAS children);
    /// returns (label attrs, alias names).
    fn take_label_with_aliases(&mut self) -> Result<LabelParts, ParseError> {
        match self.next() {
            Some(Token::Open { name, attrs, self_closing }) if name == "LABEL" => {
                let mut aliases = Vec::new();
                if !self_closing {
                    loop {
                        match self.next() {
                            Some(Token::Open { name, attrs, self_closing: true })
                                if name == "ALIAS" =>
                            {
                                if let Some(a) = attr(&attrs, "name") {
                                    aliases.push(a);
                                }
                            }
                            Some(Token::Close { name }) if name == "LABEL" => break,
                            other => {
                                return Err(structure(format!(
                                    "unexpected {other:?} inside <LABEL>"
                                )))
                            }
                        }
                    }
                }
                Ok((attrs, aliases))
            }
            other => Err(structure(format!("expected <LABEL>, got {other:?}"))),
        }
    }

    fn take_label(&mut self) -> Result<Vec<(String, String)>, ParseError> {
        self.take_label_with_aliases().map(|(a, _)| a)
    }

    fn take_property(&mut self) -> Result<Property, ParseError> {
        match self.next() {
            Some(Token::Open { name, attrs, self_closing: true }) if name == "PROPERTY" => {
                Ok(Property {
                    name: attr(&attrs, "name")
                        .ok_or_else(|| structure("<PROPERTY> without name"))?,
                    value: attr(&attrs, "value")
                        .ok_or_else(|| structure("<PROPERTY> without value"))?,
                    units: attr(&attrs, "units"),
                })
            }
            other => Err(structure(format!("expected <PROPERTY/>, got {other:?}"))),
        }
    }

    fn parse_site(&mut self) -> Result<Site, ParseError> {
        let domain = match self.next() {
            Some(Token::Open { name, attrs, self_closing: false }) if name == "SITE" => {
                attr(&attrs, "domain").ok_or_else(|| structure("<SITE> without domain"))?
            }
            other => return Err(structure(format!("expected <SITE>, got {other:?}"))),
        };
        let mut site = Site::new(&domain);
        loop {
            match self.peek() {
                Some(Token::Open { name, .. }) if name == "LABEL" => {
                    let attrs = self.take_label()?;
                    site.label = attr(&attrs, "name");
                }
                Some(Token::Open { name, .. }) if name == "MACHINE" => {
                    site.machines.push(self.parse_machine_decl()?);
                }
                Some(Token::Open { name, .. }) if name == "NETWORK" => {
                    site.networks.push(self.parse_network()?);
                }
                Some(Token::Close { name }) if name == "SITE" => {
                    self.next();
                    return Ok(site);
                }
                other => return Err(structure(format!("unexpected {other:?} in <SITE>"))),
            }
        }
    }

    fn parse_machine_decl(&mut self) -> Result<Machine, ParseError> {
        let attrs0 = match self.next() {
            Some(Token::Open { name, attrs, self_closing }) if name == "MACHINE" => {
                if self_closing {
                    // A bare reference used as a declaration: tolerate it.
                    let name =
                        attr(&attrs, "name").ok_or_else(|| structure("<MACHINE/> without name"))?;
                    let mut m = Machine::new(&name);
                    m.ip = attr(&attrs, "ip");
                    return Ok(m);
                }
                attrs
            }
            other => return Err(structure(format!("expected <MACHINE>, got {other:?}"))),
        };
        let mut machine = Machine {
            name: attr(&attrs0, "name").unwrap_or_default(),
            ip: attr(&attrs0, "ip"),
            ..Default::default()
        };
        loop {
            match self.peek() {
                Some(Token::Open { name, .. }) if name == "LABEL" => {
                    let (attrs, aliases) = self.take_label_with_aliases()?;
                    if let Some(n) = attr(&attrs, "name") {
                        machine.name = n;
                    }
                    if machine.ip.is_none() {
                        machine.ip = attr(&attrs, "ip");
                    }
                    machine.aliases.extend(aliases);
                }
                Some(Token::Open { name, .. }) if name == "PROPERTY" => {
                    machine.properties.push(self.take_property()?);
                }
                Some(Token::Close { name }) if name == "MACHINE" => {
                    self.next();
                    if machine.name.is_empty() {
                        return Err(structure("<MACHINE> without a name"));
                    }
                    return Ok(machine);
                }
                other => return Err(structure(format!("unexpected {other:?} in <MACHINE>"))),
            }
        }
    }

    fn parse_network(&mut self) -> Result<Network, ParseError> {
        let net_type = match self.next() {
            Some(Token::Open { name, attrs, self_closing: false }) if name == "NETWORK" => {
                match attr(&attrs, "type") {
                    Some(t) => Some(
                        NetworkType::from_str_opt(&t)
                            .ok_or_else(|| structure(format!("unknown network type {t:?}")))?,
                    ),
                    None => None,
                }
            }
            other => return Err(structure(format!("expected <NETWORK>, got {other:?}"))),
        };
        let mut net = Network::new(net_type);
        loop {
            match self.peek() {
                Some(Token::Open { name, .. }) if name == "LABEL" => {
                    let attrs = self.take_label()?;
                    net.label_ip = attr(&attrs, "ip");
                    net.label_name = attr(&attrs, "name");
                }
                Some(Token::Open { name, .. }) if name == "PROPERTY" => {
                    net.properties.push(self.take_property()?);
                }
                Some(Token::Open { name, attrs, .. }) if name == "MACHINE" => {
                    // Inside a NETWORK, MACHINE elements are references.
                    let attrs = attrs.clone();
                    let tok = self.next().expect("peeked");
                    if let Token::Open { self_closing: false, .. } = tok {
                        self.expect_close("MACHINE")?;
                    }
                    let name = attr(&attrs, "name")
                        .ok_or_else(|| structure("<MACHINE/> reference without name"))?;
                    net.machines.push(name);
                }
                Some(Token::Open { name, .. }) if name == "NETWORK" => {
                    net.subnets.push(self.parse_network()?);
                }
                Some(Token::Close { name }) if name == "NETWORK" => {
                    self.next();
                    return Ok(net);
                }
                other => return Err(structure(format!("unexpected {other:?} in <NETWORK>"))),
            }
        }
    }
}

fn attr(attrs: &[(String, String)], key: &str) -> Option<String> {
    attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
}

/// Whether a property name denotes a physical quantity whose value must be
/// a finite, non-negative number: the ENV bandwidth/ratio properties of
/// §4.2.2.4 (`*_BW`, `ENV_jam_ratio`) plus the bare `bandwidth` /
/// `capacity` / `latency` annotations. Deliberately a closed set — a
/// substring match would turn free-text user properties like
/// `Memory_capacity="256 MB"` (the §4.2.1.2 host-information style) into
/// parse errors.
fn is_quantity_property(name: &str) -> bool {
    name.ends_with("_BW")
        || name == "ENV_jam_ratio"
        || name.eq_ignore_ascii_case("bandwidth")
        || name.eq_ignore_ascii_case("capacity")
        || name.eq_ignore_ascii_case("latency")
}

/// Reject quantity properties whose value would silently poison the
/// max-min allocator or the planner later (NaN and ±inf propagate through
/// every mean/median; negative capacities invert the progressive filling).
fn check_quantity(p: &Property) -> Result<(), ParseError> {
    if !is_quantity_property(&p.name) {
        return Ok(());
    }
    let numeric =
        |reason| ParseError::Numeric { property: p.name.clone(), value: p.value.clone(), reason };
    let v: f64 = p.value.trim().parse().map_err(|_| numeric("not a number"))?;
    if v.is_nan() {
        return Err(numeric("NaN"));
    }
    if v.is_infinite() {
        return Err(numeric("infinite"));
    }
    if v < 0.0 {
        return Err(numeric("negative"));
    }
    Ok(())
}

fn check_network_quantities(net: &Network) -> Result<(), ParseError> {
    for p in &net.properties {
        check_quantity(p)?;
    }
    for sub in &net.subnets {
        check_network_quantities(sub)?;
    }
    Ok(())
}

fn check_doc_quantities(doc: &GridDoc) -> Result<(), ParseError> {
    for site in &doc.sites {
        for m in &site.machines {
            for p in &m.properties {
                check_quantity(p)?;
            }
        }
        for net in &site.networks {
            check_network_quantities(net)?;
        }
    }
    Ok(())
}

impl GridDoc {
    /// Parse a GridML document.
    pub fn parse(input: &str) -> Result<GridDoc, ParseError> {
        let tokens = tokenize(input)?;
        let mut p = Parser { tokens, pos: 0 };
        let doc = p.parse_grid()?;
        if p.peek().is_some() {
            return Err(structure("trailing content after </GRID>"));
        }
        check_doc_quantities(&doc)?;
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's §4.2.1.1 lookup listing, verbatim.
    const PAPER_LOOKUP: &str = r#"<?xml version="1.0"?>
<GRID>
<SITE domain="ens-lyon.fr">
<LABEL name="ENS-LYON-FR" />
<MACHINE>
<LABEL ip="140.77.13.229" name="canaria.ens-lyon.fr">
<ALIAS name="canaria" />
</LABEL>
</MACHINE>
<MACHINE>
<LABEL ip="140.77.13.82" name="moby.cri2000.ens-lyon.fr">
<ALIAS name="moby" />
</LABEL>
</MACHINE>
</SITE>
</GRID>"#;

    #[test]
    fn parses_paper_lookup_listing() {
        let doc = GridDoc::parse(PAPER_LOOKUP).unwrap();
        assert_eq!(doc.sites.len(), 1);
        let site = &doc.sites[0];
        assert_eq!(site.domain, "ens-lyon.fr");
        assert_eq!(site.label.as_deref(), Some("ENS-LYON-FR"));
        assert_eq!(site.machines.len(), 2);
        let canaria = site.machine("canaria").unwrap();
        assert_eq!(canaria.ip.as_deref(), Some("140.77.13.229"));
        assert_eq!(canaria.aliases, vec!["canaria"]);
    }

    /// The paper's §4.2.1.2 property listing.
    const PAPER_PROPS: &str = r#"<?xml version="1.0"?>
<GRID>
<SITE domain="cri2000.ens-lyon.fr">
<MACHINE>
<LABEL ip="140.77.13.92" name="pikaki.cri2000.ens-lyon.fr">
<ALIAS name="pikaki" />
</LABEL>
<PROPERTY name="CPU_clock" value="198.951" units="MHz" />
<PROPERTY name="CPU_model" value="Pentium Pro" />
<PROPERTY name="CPU_num" value="1" />
<PROPERTY name="Machine_type" value="i686" />
<PROPERTY name="OS_version" value="Linux 2.4.19-pre7-act" />
<PROPERTY name="kflops" value="17607" />
</MACHINE>
</SITE>
</GRID>"#;

    #[test]
    fn parses_paper_property_listing() {
        let doc = GridDoc::parse(PAPER_PROPS).unwrap();
        let m = doc.machine("pikaki").unwrap();
        assert_eq!(m.properties.len(), 6);
        assert_eq!(m.property("kflops").unwrap().value, "17607");
        assert_eq!(m.property("CPU_clock").unwrap().units.as_deref(), Some("MHz"));
    }

    /// The paper's §4.2.1.3 structural listing (nested networks with
    /// machine references).
    const PAPER_STRUCTURAL: &str = r#"<GRID>
<SITE domain="ens-lyon.fr">
<NETWORK type="Structural">
<LABEL ip="192.168.254.1" name="192.168.254.1" />
<NETWORK>
<LABEL ip="140.77.13.1" name="140.77.13.1" />
<MACHINE name="canaria.ens-lyon.fr" />
<MACHINE name="moby.cri2000.ens-lyon.fr" />
<MACHINE name="the-doors.ens-lyon.fr" />
</NETWORK>
<NETWORK>
<LABEL ip="140.77.161.1" name="routeur-backbone" />
<NETWORK>
<LABEL ip="140.77.12.1" name="routlhpc" />
<MACHINE name="myri.ens-lyon.fr" />
<MACHINE name="popc.ens-lyon.fr" />
<MACHINE name="sci.ens-lyon.fr" />
</NETWORK>
</NETWORK>
</NETWORK>
</SITE>
</GRID>"#;

    #[test]
    fn parses_paper_structural_listing() {
        let doc = GridDoc::parse(PAPER_STRUCTURAL).unwrap();
        let net = &doc.sites[0].networks[0];
        assert_eq!(net.net_type, Some(NetworkType::Structural));
        assert_eq!(net.label_ip.as_deref(), Some("192.168.254.1"));
        assert_eq!(net.subnets.len(), 2);
        assert_eq!(net.subnets[0].machines.len(), 3);
        assert_eq!(net.subnets[1].label_name.as_deref(), Some("routeur-backbone"));
        assert_eq!(
            net.subnets[1].subnets[0].machines,
            vec!["myri.ens-lyon.fr", "popc.ens-lyon.fr", "sci.ens-lyon.fr"]
        );
        assert_eq!(net.network_count(), 4);
    }

    #[test]
    fn write_parse_round_trip() {
        let doc = GridDoc::parse(PAPER_STRUCTURAL).unwrap();
        let xml = doc.to_xml();
        let doc2 = GridDoc::parse(&xml).unwrap();
        assert_eq!(doc, doc2);
    }

    #[test]
    fn structural_errors() {
        assert!(GridDoc::parse("<GRID>").is_err());
        assert!(GridDoc::parse("<SITE domain=\"x\"></SITE>").is_err());
        assert!(GridDoc::parse("<GRID><SITE></SITE></GRID>").is_err());
        assert!(GridDoc::parse("<GRID></GRID><GRID></GRID>").is_err());
        assert!(GridDoc::parse(
            r#"<GRID><SITE domain="x"><NETWORK type="Wrong"></NETWORK></SITE></GRID>"#
        )
        .is_err());
    }

    fn doc_with_network_property(name: &str, value: &str) -> String {
        format!(
            r#"<GRID><SITE domain="x"><NETWORK type="ENV_Switched">
<PROPERTY name="{name}" value="{value}" units="Mbps" />
</NETWORK></SITE></GRID>"#
        )
    }

    fn doc_with_machine_property(name: &str, value: &str) -> String {
        format!(
            r#"<GRID><SITE domain="x"><MACHINE name="a.x">
<PROPERTY name="{name}" value="{value}" />
</MACHINE></SITE></GRID>"#
        )
    }

    #[test]
    fn non_finite_and_negative_quantities_rejected() {
        // Each poisoned form, on a network bandwidth property…
        for bad in ["NaN", "nan", "inf", "+inf", "-inf", "-32.65", "fast"] {
            let err = GridDoc::parse(&doc_with_network_property("ENV_base_BW", bad))
                .expect_err(&format!("ENV_base_BW={bad} must be rejected"));
            assert!(matches!(err, ParseError::Numeric { .. }), "{bad}: {err}");
        }
        // …on the jam ratio…
        let err = GridDoc::parse(&doc_with_network_property("ENV_jam_ratio", "NaN")).unwrap_err();
        assert!(matches!(err, ParseError::Numeric { .. }));
        // …and on machine-level latency/capacity annotations.
        for (name, bad) in [("latency", "-5"), ("Capacity", "inf")] {
            let err = GridDoc::parse(&doc_with_machine_property(name, bad))
                .expect_err(&format!("{name}={bad} must be rejected"));
            assert!(matches!(err, ParseError::Numeric { .. }), "{name}={bad}: {err}");
        }
        // The error renders usefully.
        let err =
            GridDoc::parse(&doc_with_network_property("ENV_base_local_BW", "-1")).unwrap_err();
        assert!(err.to_string().contains("negative"), "{err}");
    }

    #[test]
    fn finite_quantities_and_free_text_properties_accepted() {
        assert!(GridDoc::parse(&doc_with_network_property("ENV_base_BW", "32.65")).is_ok());
        assert!(GridDoc::parse(&doc_with_network_property("ENV_jam_ratio", "0")).is_ok());
        // Non-quantity properties stay free-form (paper's CPU_model etc.),
        // including names that merely *contain* a quantity keyword.
        assert!(GridDoc::parse(&doc_with_machine_property("CPU_model", "Pentium Pro")).is_ok());
        assert!(GridDoc::parse(&doc_with_machine_property("OS_version", "Linux 2.4.19")).is_ok());
        assert!(GridDoc::parse(&doc_with_machine_property("Memory_capacity", "256 MB")).is_ok());
    }

    #[test]
    fn machine_reference_with_explicit_close_tag() {
        let doc = GridDoc::parse(
            r#"<GRID><SITE domain="x"><NETWORK><MACHINE name="a.x"></MACHINE></NETWORK></SITE></GRID>"#,
        )
        .unwrap();
        assert_eq!(doc.sites[0].networks[0].machines, vec!["a.x"]);
    }

    #[cfg(test)]
    mod properties {
        use super::*;
        use crate::{Machine, Network, Property, Site};
        use proptest::prelude::*;

        fn name_strategy() -> impl Strategy<Value = String> {
            "[a-z][a-z0-9.-]{0,20}"
        }

        prop_compose! {
            fn arb_property()(
                name in name_strategy(),
                value in "[ -~&&[^\"<>&]]{0,16}",
                units in proptest::option::of("[A-Za-z]{1,6}"),
            ) -> Property {
                Property { name, value, units }
            }
        }

        prop_compose! {
            fn arb_machine()(
                name in name_strategy(),
                ip in proptest::option::of("[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}"),
                aliases in proptest::collection::vec(name_strategy(), 0..3),
                props in proptest::collection::vec(arb_property(), 0..4),
            ) -> Machine {
                Machine { name, ip, aliases, properties: props }
            }
        }

        fn arb_network(depth: u32) -> BoxedStrategy<Network> {
            let leaf = (
                proptest::option::of(name_strategy()),
                proptest::collection::vec(name_strategy(), 0..4),
                proptest::collection::vec(arb_property(), 0..3),
            )
                .prop_map(|(label, machines, properties)| Network {
                    net_type: Some(crate::NetworkType::EnvShared),
                    label_ip: None,
                    label_name: label,
                    properties,
                    machines,
                    subnets: vec![],
                });
            if depth == 0 {
                leaf.boxed()
            } else {
                (leaf, proptest::collection::vec(arb_network(depth - 1), 0..2))
                    .prop_map(|(mut n, subs)| {
                        n.subnets = subs;
                        n
                    })
                    .boxed()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn round_trip_arbitrary_docs(
                machines in proptest::collection::vec(arb_machine(), 0..5),
                networks in proptest::collection::vec(arb_network(2), 0..3),
                domain in name_strategy(),
            ) {
                let site = Site { domain, label: None, machines, networks };
                let doc = GridDoc { label: Some("Grid1".into()), sites: vec![site] };
                let xml = doc.to_xml();
                let parsed = GridDoc::parse(&xml).unwrap();
                prop_assert_eq!(doc, parsed);
            }
        }
    }
}
