//! Fixture monitor: columns walked together, nothing indexed.
pub fn observe(cpu: &[f64], nic: &[f64], out: &mut Vec<(f64, f64)>) {
    out.extend(cpu.iter().copied().zip(nic.iter().copied()));
}
