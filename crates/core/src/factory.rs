//! The IA factory (paper §3.3, Figure 5 step 6): builds the outgoing IA
//! for a selected best path.
//!
//! Pass-through falls out of the construction: the factory *starts from
//! the stored incoming IA* for the chosen path, so every descriptor for a
//! protocol the local AS does not run — and every unknown future record —
//! is carried over untouched. Resident protocols' export filters then
//! modify only their own descriptors, and the global export filter
//! applies island abstraction and operator stripping last.

use crate::filters::{self, FilterConfig, IslandConfig};
use crate::module::{DecisionModule, ExportContext};
use crate::neighbor::NeighborId;
use dbgp_wire::{BgpAttrs, Ia, WireError};

/// Everything the factory needs to know about the exporting speaker.
#[derive(Debug, Clone, Copy)]
pub struct FactoryContext<'a> {
    /// Our AS number (prepended to the path vector).
    pub local_as: u32,
    /// Our island configuration, if any.
    pub island: Option<IslandConfig>,
    /// Global filter settings.
    pub filters: &'a FilterConfig,
    /// The neighbor this IA is destined for.
    pub neighbor: NeighborId,
    /// That neighbor's AS number.
    pub neighbor_as: u32,
    /// True when the neighbor belongs to our island (suppresses
    /// abstraction).
    pub neighbor_in_island: bool,
}

/// Build the IA to advertise to one neighbor, given the chosen incoming
/// IA (or the origin IA for locally originated prefixes).
///
/// `modules` are the *resident* protocols' decision modules; each gets to
/// update its own descriptors via its export filter — e.g., Wiser adds
/// the local AS's internal cost, BGPSec-lite extends the attestation
/// chain toward this specific neighbor.
pub fn build_outgoing<'m>(
    chosen: &Ia,
    ctx: FactoryContext<'_>,
    modules: impl IntoIterator<Item = &'m mut dyn DecisionModule>,
) -> Result<Ia, WireError> {
    // Pass-through: start from the incoming IA with everything intact
    // and our AS in front. Descriptor values and unknown records are
    // shared with `chosen` (refcounted views), so this copies the IA's
    // structure, not its payload bytes. Of the BGP attributes, only what
    // may leave the AS goes on.
    let mut ia = chosen.prepended(ctx.local_as);
    if ia.bgp.is_some() {
        ia.edit_bgp(BgpAttrs::export_ebgp);
    }
    if let Some(island) = ctx.island {
        filters::declare_own_membership(&mut ia, island.id)?;
    }
    let export_ctx = ExportContext {
        neighbor: ctx.neighbor,
        neighbor_as: ctx.neighbor_as,
        local_as: ctx.local_as,
        prefix: ia.prefix,
    };
    for module in modules {
        module.export(&mut ia, export_ctx);
    }
    filters::global_export(ctx.filters, ctx.island, !ctx.neighbor_in_island, &mut ia)?;
    ia.validate()?;
    Ok(ia)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_wire::ia::{dkey, UnknownRecord};
    use dbgp_wire::{Ipv4Addr, Ipv4Prefix, IslandId, PathElem, ProtocolId};

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn incoming() -> Ia {
        let mut ia = Ia::originate(p("128.6.0.0/16"), Ipv4Addr::new(9, 9, 9, 9));
        ia.prepend_as(200);
        ia.set_path_descriptor(ProtocolId::SCION, dkey::SCION_PATHS, b"br1 br2".to_vec());
        let future =
            UnknownRecord { tag: 999, data: bytes::Bytes::from_static(b"future-extension") };
        ia.with_records(|r| r.unknown_records.push(future));
        ia
    }

    fn ctx<'a>(filters: &'a FilterConfig, island: Option<IslandConfig>) -> FactoryContext<'a> {
        FactoryContext {
            local_as: 100,
            island,
            filters,
            neighbor: NeighborId(7),
            neighbor_as: 300,
            neighbor_in_island: false,
        }
    }

    #[test]
    fn pass_through_preserves_foreign_descriptors_and_unknowns() {
        let filters = FilterConfig::default();
        let out = build_outgoing(&incoming(), ctx(&filters, None), []).unwrap();
        assert_eq!(out.path_vector, vec![PathElem::As(100), PathElem::As(200)]);
        assert!(out.path_descriptor(ProtocolId::SCION, dkey::SCION_PATHS).is_some());
        assert_eq!(out.unknown_records().len(), 1);
    }

    #[test]
    fn resident_module_export_filter_runs() {
        struct AddCost;
        impl DecisionModule for AddCost {
            fn protocol(&self) -> ProtocolId {
                ProtocolId::WISER
            }
            fn export(&mut self, ia: &mut Ia, _: ExportContext) {
                ia.set_path_descriptor(
                    ProtocolId::WISER,
                    dkey::WISER_PATH_COST,
                    42u64.to_be_bytes().to_vec(),
                );
            }
        }
        let filters = FilterConfig::default();
        let mut module = AddCost;
        let modules = [&mut module as &mut dyn DecisionModule];
        let out = build_outgoing(&incoming(), ctx(&filters, None), modules).unwrap();
        let d = out.path_descriptor(ProtocolId::WISER, dkey::WISER_PATH_COST).unwrap();
        assert_eq!(d.value, 42u64.to_be_bytes().to_vec());
    }

    #[test]
    fn abstraction_applied_when_leaving_island() {
        let filters = FilterConfig::default();
        let island = IslandConfig { id: IslandId(77), abstraction: true };
        let out = build_outgoing(&incoming(), ctx(&filters, Some(island)), []).unwrap();
        assert_eq!(out.path_vector, vec![PathElem::Island(IslandId(77)), PathElem::As(200)]);
    }

    #[test]
    fn no_abstraction_toward_island_members() {
        let filters = FilterConfig::default();
        let island = IslandConfig { id: IslandId(77), abstraction: true };
        let mut c = ctx(&filters, Some(island));
        c.neighbor_in_island = true;
        let out = build_outgoing(&incoming(), c, []).unwrap();
        assert_eq!(out.path_vector, vec![PathElem::As(100), PathElem::As(200)]);
        assert_eq!(out.island_of(0), Some(IslandId(77)), "membership still declared");
    }

    #[test]
    fn declared_island_without_abstraction_keeps_ases() {
        let filters = FilterConfig::default();
        let island = IslandConfig { id: IslandId(77), abstraction: false };
        let out = build_outgoing(&incoming(), ctx(&filters, Some(island)), []).unwrap();
        assert_eq!(out.path_vector, vec![PathElem::As(100), PathElem::As(200)]);
        assert_eq!(out.island_of(0), Some(IslandId(77)));
    }
}
