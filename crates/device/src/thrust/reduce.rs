//! Parallel reductions.

use crate::device::Device;

/// Maximum of `f(i)` over `0..n`, or `None` when `n == 0`.
pub fn max_by<F>(device: &Device, n: usize, f: F) -> Option<u32>
where
    F: Fn(usize) -> u32 + Sync,
{
    if n == 0 {
        return None;
    }
    device.metrics().add_kernel_launch();
    device.metrics().add_ops(n as u64);
    let parts = device.executor().partitions(n);
    let mut maxima = vec![0u32; parts.len()];
    {
        let parts_ref = &parts;
        device.executor().fill(&mut maxima, |p| {
            parts_ref[p].clone().map(&f).max().unwrap_or(0)
        });
    }
    maxima.into_iter().max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DeviceProfile;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    #[test]
    fn max_by_finds_maximum() {
        let d = device();
        assert_eq!(max_by(&d, 1000, |i| ((i * 37) % 991) as u32), Some(990));
        assert_eq!(max_by(&d, 0, |i| i as u32), None);
    }
}
