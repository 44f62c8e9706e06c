//! The parsed form of a BGP route: one prefix's attributes, decoded out
//! of an UPDATE's attribute list and re-encodable back into one.

use dbgp_wire::attrs::{code, AsPath, BgpAttrs, Origin, PathAttribute};
use dbgp_wire::error::{WireError, WireResult};
use dbgp_wire::{Ia, Ipv4Addr, Ipv4Prefix};

/// A route: everything BGP knows about one path to one prefix.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Route {
    /// ORIGIN attribute.
    pub origin: Origin,
    /// AS_PATH attribute.
    pub as_path: AsPath,
    /// NEXT_HOP attribute.
    pub next_hop: Ipv4Addr,
    /// MED, LOCAL_PREF and the attributes carried but not interpreted;
    /// what of them crosses the AS boundary is [`BgpAttrs`]'s rule.
    pub bgp: BgpAttrs,
}

/// Default LOCAL_PREF assumed when the attribute is absent.
pub const DEFAULT_LOCAL_PREF: u32 = 100;

impl Route {
    /// A locally originated route (empty AS path).
    pub fn originated(next_hop: Ipv4Addr) -> Self {
        Route { origin: Origin::Igp, as_path: AsPath::empty(), next_hop, bgp: BgpAttrs::default() }
    }

    /// Parse from an UPDATE's attribute list. Errors if a mandatory
    /// attribute is missing.
    pub fn from_attrs(attrs: &[PathAttribute]) -> WireResult<Self> {
        let mut origin = None;
        let mut as_path = None;
        let mut next_hop = None;
        let mut bgp = BgpAttrs::default();
        for attr in attrs {
            match attr {
                PathAttribute::Origin(o) => origin = Some(*o),
                PathAttribute::AsPath(p) => as_path = Some(p.clone()),
                PathAttribute::NextHop(a) => next_hop = Some(*a),
                other => bgp.insert(other.clone()),
            }
        }
        Ok(Route {
            origin: origin.ok_or(WireError::MissingWellKnownAttribute(code::ORIGIN))?,
            as_path: as_path.ok_or(WireError::MissingWellKnownAttribute(code::AS_PATH))?,
            next_hop: next_hop.ok_or(WireError::MissingWellKnownAttribute(code::NEXT_HOP))?,
            bgp,
        })
    }

    /// Re-encode as an attribute list. `include_local_pref` should be
    /// true only toward iBGP peers.
    pub fn to_attrs(&self, include_local_pref: bool) -> Vec<PathAttribute> {
        let mut attrs = vec![
            PathAttribute::Origin(self.origin),
            PathAttribute::AsPath(self.as_path.clone()),
            PathAttribute::NextHop(self.next_hop),
        ];
        self.bgp.to_attrs(include_local_pref, &mut attrs);
        attrs
    }

    /// This route as the IA for `prefix`: the shared fields and the BGP
    /// attributes move across, the AS_PATH becomes the path vector.
    pub fn to_ia(&self, prefix: Ipv4Prefix) -> Ia {
        let mut ia = Ia::originate(prefix, self.next_hop);
        ia.origin = self.origin;
        ia.path_vector = self.as_path.to_path_vector();
        ia.bgp = (!self.bgp.is_empty()).then(|| Box::new(self.bgp.clone()));
        ia
    }

    /// The route an IA carries. An island in its path vector has no
    /// AS_PATH form and is refused.
    pub fn from_ia(ia: &Ia) -> WireResult<Self> {
        Ok(Route {
            origin: ia.origin,
            as_path: AsPath::from_path_vector(&ia.path_vector)?,
            next_hop: ia.next_hop,
            bgp: ia.bgp.as_deref().cloned().unwrap_or_default(),
        })
    }

    /// Effective LOCAL_PREF for the decision process.
    pub fn effective_local_pref(&self) -> u32 {
        self.bgp.local_pref.unwrap_or(DEFAULT_LOCAL_PREF)
    }

    /// The route as it should be advertised to an eBGP neighbor: our AS
    /// prepended, NEXT_HOP rewritten, the BGP attributes as
    /// [`BgpAttrs::export_ebgp`] lets them leave.
    pub fn for_ebgp_export(&self, local_as: u32, local_addr: Ipv4Addr) -> Self {
        let mut out = self.clone();
        out.as_path.prepend(local_as);
        out.next_hop = local_addr;
        out.bgp.export_ebgp();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use dbgp_wire::attrs::FLAG_OPTIONAL;
    use dbgp_wire::attrs::FLAG_TRANSITIVE;

    fn sample() -> Route {
        Route {
            origin: Origin::Igp,
            as_path: AsPath::from_sequence(vec![10, 20]),
            next_hop: Ipv4Addr::new(192, 0, 2, 1),
            bgp: BgpAttrs {
                med: Some(5),
                local_pref: Some(150),
                extras: vec![
                    PathAttribute::Communities(vec![0xdead_beef]),
                    PathAttribute::Unknown {
                        flags: FLAG_OPTIONAL | FLAG_TRANSITIVE,
                        code: 77,
                        data: Bytes::from_static(b"x"),
                    },
                ],
            },
        }
    }

    #[test]
    fn attrs_roundtrip_with_local_pref() {
        let route = sample();
        let attrs = route.to_attrs(true);
        let back = Route::from_attrs(&attrs).unwrap();
        assert_eq!(back, route);
    }

    #[test]
    fn ebgp_attrs_omit_local_pref() {
        let attrs = sample().to_attrs(false);
        assert!(!attrs.iter().any(|a| matches!(a, PathAttribute::LocalPref(_))));
    }

    #[test]
    fn from_attrs_requires_mandatory() {
        let err = Route::from_attrs(&[PathAttribute::Origin(Origin::Igp)]);
        assert!(matches!(err, Err(WireError::MissingWellKnownAttribute(_))));
    }

    #[test]
    fn non_transitive_extras_dropped_on_export() {
        let mut route = sample();
        route.bgp.extras.push(PathAttribute::Unknown {
            flags: FLAG_OPTIONAL, // non-transitive
            code: 88,
            data: Bytes::from_static(b"y"),
        });
        let attrs = route.to_attrs(true);
        assert!(attrs.iter().any(|a| a.code() == 77));
        assert!(!attrs.iter().any(|a| a.code() == 88));
    }

    #[test]
    fn ebgp_export_prepends_and_rewrites() {
        let out = sample().for_ebgp_export(65000, Ipv4Addr::new(10, 9, 9, 9));
        assert_eq!(out.as_path.first_as(), Some(65000));
        assert_eq!(out.as_path.hop_count(), 3);
        assert_eq!(out.next_hop, Ipv4Addr::new(10, 9, 9, 9));
        assert_eq!(out.bgp.local_pref, None);
        assert_eq!(out.bgp.med, None);
    }

    #[test]
    fn default_local_pref_is_100() {
        let route = Route::originated(Ipv4Addr::new(192, 0, 2, 1));
        assert_eq!(route.effective_local_pref(), DEFAULT_LOCAL_PREF);
    }
}
