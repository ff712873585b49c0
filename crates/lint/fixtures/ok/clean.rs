// Good: the compliant counterpart of d4_unit_newtypes.rs. Typed unit
// parameters, private helpers and unitless names produce zero
// diagnostics even with every rule enabled.

pub fn record_power(power: Watts) -> Watts {
    power
}

pub fn observe(p99_us: Micros) -> Micros {
    p99_us
}

fn doubled(delay_ms: f64) -> f64 {
    delay_ms * 2.0
}

pub fn utilization(busy: f64, total: f64) -> f64 {
    busy / total
}
