//! Names only the frozen `cqbench` still calls, one-line delegations that go when it next changes.

pub fn signature_pointed(p: &crate::Pointed) -> crate::iso::CanonicalForm {
    crate::iso::canonical_form(p)
}
