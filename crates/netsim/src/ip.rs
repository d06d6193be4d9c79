//! IPv4 addresses, address classes and routability.
//!
//! The paper's ENV fixes need two IP-level notions:
//!
//! * **address class** (RFC 1166 classful networks) — when a host has no
//!   DNS name, ENV falls back to grouping it by the network part of its
//!   classful address (§4.3 "Machines without hostname");
//! * **non-routable addresses** (RFC 1918 private ranges) — these are kept
//!   in the structural tree because they are routable *inside* the mapped
//!   network (§4.3: the root of Figure 2 is the non-routable 192.168.254.1).

use std::fmt;
use std::str::FromStr;

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4(u32);

/// Classful address classes (RFC 1166).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpClass {
    /// First octet 0–127, /8 network.
    A,
    /// First octet 128–191, /16 network.
    B,
    /// First octet 192–223, /24 network.
    C,
    /// First octet 224–239 (multicast).
    D,
    /// First octet 240–255 (reserved).
    E,
}

impl Ipv4 {
    pub(crate) fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4(u32::from_be_bytes([a, b, c, d]))
    }

    pub(crate) fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// The classful class of this address.
    pub(crate) fn class(self) -> IpClass {
        let first = self.octets()[0];
        match first {
            0..=127 => IpClass::A,
            128..=191 => IpClass::B,
            192..=223 => IpClass::C,
            224..=239 => IpClass::D,
            _ => IpClass::E,
        }
    }

    /// The network address implied by the classful class: the part ENV uses
    /// to group unnamed hosts into pseudo-domains.
    pub(crate) fn class_network(self) -> Ipv4 {
        let o = self.octets();
        match self.class() {
            IpClass::A => Ipv4::new(o[0], 0, 0, 0),
            IpClass::B => Ipv4::new(o[0], o[1], 0, 0),
            // Classes C, D and E all keep three octets here; for D/E the
            // grouping is nonsensical anyway but total.
            IpClass::C | IpClass::D | IpClass::E => Ipv4::new(o[0], o[1], o[2], 0),
        }
    }

    /// A pseudo-domain name derived from the classful network, used when DNS
    /// resolution fails (ENV's "use IP address class" fallback).
    pub(crate) fn class_domain(self) -> String {
        let n = self.class_network().octets();
        match self.class() {
            IpClass::A => format!("net-{}", n[0]),
            IpClass::B => format!("net-{}.{}", n[0], n[1]),
            IpClass::C | IpClass::D | IpClass::E => format!("net-{}.{}.{}", n[0], n[1], n[2]),
        }
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

/// Error from parsing an IPv4 dotted-quad string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIpError(pub String);

impl fmt::Display for ParseIpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IPv4 address: {:?}", self.0)
    }
}

impl std::error::Error for ParseIpError {}

impl FromStr for Ipv4 {
    type Err = ParseIpError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in octets.iter_mut() {
            let part = parts.next().ok_or_else(|| ParseIpError(s.to_string()))?;
            *slot = part.parse::<u8>().map_err(|_| ParseIpError(s.to_string()))?;
        }
        if parts.next().is_some() {
            return Err(ParseIpError(s.to_string()));
        }
        Ok(Ipv4::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Ipv4 {
        /// True for RFC 1918 private ranges (10/8, 172.16/12, 192.168/16) plus
        /// loopback and link-local — addresses that are only routable inside the
        /// local network.
        fn is_private(self) -> bool {
            let o = self.octets();
            o[0] == 10
                || (o[0] == 172 && (16..=31).contains(&o[1]))
                || (o[0] == 192 && o[1] == 168)
                || o[0] == 127
                || (o[0] == 169 && o[1] == 254)
        }
    }

    #[test]
    fn parse_and_display_round_trip() {
        let ip: Ipv4 = "140.77.13.229".parse().unwrap();
        assert_eq!(ip.octets(), [140, 77, 13, 229]);
        assert_eq!(ip.to_string(), "140.77.13.229");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Ipv4>().is_err());
        assert!("1.2.3".parse::<Ipv4>().is_err());
        assert!("1.2.3.4.5".parse::<Ipv4>().is_err());
        assert!("1.2.3.256".parse::<Ipv4>().is_err());
        assert!("a.b.c.d".parse::<Ipv4>().is_err());
    }

    #[test]
    fn classes() {
        assert_eq!(Ipv4::new(10, 0, 0, 1).class(), IpClass::A);
        assert_eq!(Ipv4::new(140, 77, 13, 1).class(), IpClass::B);
        assert_eq!(Ipv4::new(192, 168, 81, 50).class(), IpClass::C);
        assert_eq!(Ipv4::new(224, 0, 0, 1).class(), IpClass::D);
        assert_eq!(Ipv4::new(250, 0, 0, 1).class(), IpClass::E);
    }

    #[test]
    fn class_networks() {
        assert_eq!(Ipv4::new(10, 1, 2, 3).class_network(), Ipv4::new(10, 0, 0, 0));
        assert_eq!(Ipv4::new(140, 77, 13, 229).class_network(), Ipv4::new(140, 77, 0, 0));
        assert_eq!(Ipv4::new(192, 168, 81, 50).class_network(), Ipv4::new(192, 168, 81, 0));
    }

    #[test]
    fn privateness() {
        // The paper's popc.private domain uses 192.168.81.x; the structural
        // root is 192.168.254.1 — both non-routable.
        assert!(Ipv4::new(192, 168, 81, 50).is_private());
        assert!(Ipv4::new(192, 168, 254, 1).is_private());
        assert!(Ipv4::new(10, 20, 30, 40).is_private());
        assert!(Ipv4::new(172, 16, 0, 1).is_private());
        assert!(Ipv4::new(172, 31, 255, 255).is_private());
        assert!(!Ipv4::new(172, 32, 0, 1).is_private());
        assert!(!Ipv4::new(140, 77, 13, 1).is_private());
    }

    #[test]
    fn class_domain_fallback() {
        assert_eq!(Ipv4::new(140, 77, 13, 229).class_domain(), "net-140.77");
        assert_eq!(Ipv4::new(192, 168, 81, 50).class_domain(), "net-192.168.81");
        assert_eq!(Ipv4::new(10, 1, 2, 3).class_domain(), "net-10");
    }

    #[test]
    fn ordering_is_numeric() {
        let a = Ipv4::new(1, 2, 3, 4);
        let b = Ipv4::new(1, 2, 3, 5);
        assert!(a < b);
    }
}
