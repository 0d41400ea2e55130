//! Fixture: a sweep column indexed by the other column's length.
pub fn observe(cpu: &[f64], nic: &[f64], out: &mut Vec<(f64, f64)>) {
    for (i, &c) in cpu.iter().enumerate() {
        out.push((c, nic[i]));
    }
}
