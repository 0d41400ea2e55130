//! Fixture: one unwaived and one waived literal metric name.
pub struct Registry;
impl Registry {
    pub fn counter(&self, _name: &str) {}
}

pub fn serve(registry: &Registry) {
    registry.counter("boom.metric");
    // cbes-analyze: allow(metric_names, fixture: a scratch name this fixture owns)
    registry.counter("scratch.metric");
}
