//! Names only the frozen `cqbench` still calls, one-line delegations that go when it next changes.

impl crate::QueryClass {
    pub fn as_class(&self) -> Box<crate::QueryClass> {
        Box::new(*self)
    }
}
