//! The host block: what the numbers were measured on.

use std::time::Instant;

/// Host facts recorded with every run.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPUs in this process's affinity mask (`Cpus_allowed_list`).
    pub cores_granted: usize,
    pub cpus_allowed: String,
    pub cpu_model: String,
    /// Which of `avx2`, `avx512f`, `fma` the CPU reports.
    pub flags: Vec<&'static str>,
    pub kernel: String,
    /// Measured single-core f32 FMA peak, GFLOP/s.
    pub fma_peak_gflops: f64,
    /// The GEMM kernel this process dispatches.
    pub gemm_kernel: &'static str,
}

impl Host {
    pub fn probe() -> Host {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let cpus_allowed = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .unwrap_or("")
            .trim()
            .to_string();
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |name: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
                .unwrap_or_default()
        };
        let cpu_flags = field("flags");
        let flags = ["avx2", "avx512f", "fma"]
            .into_iter()
            .filter(|f| cpu_flags.split_whitespace().any(|g| g == *f))
            .collect();
        Host {
            cores_granted: count_cpus(&cpus_allowed),
            cpus_allowed,
            cpu_model: field("model name"),
            flags,
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .unwrap_or_default()
                .trim()
                .to_string(),
            fma_peak_gflops: fma_peak_gflops(),
            gemm_kernel: mmjoin_matrix::active_kernel().name(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores_granted\":{},\"cpus_allowed\":\"{}\",\"cpu_model\":\"{}\",\"flags\":[{}],\
             \"kernel\":\"{}\",\"fma_peak_gflops\":{:.2},\"gemm_kernel\":\"{}\"}}",
            self.cores_granted,
            self.cpus_allowed,
            self.cpu_model.replace('"', "'"),
            self.flags
                .iter()
                .map(|f| format!("\"{f}\""))
                .collect::<Vec<_>>()
                .join(","),
            self.kernel,
            self.fma_peak_gflops,
            self.gemm_kernel
        )
    }
}

/// Counts the CPUs of a list like `0-3,6,8-9`.
fn count_cpus(list: &str) -> usize {
    list.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| match p.split_once('-') {
            Some((a, b)) => {
                let (a, b): (usize, usize) =
                    (a.trim().parse().unwrap_or(0), b.trim().parse().unwrap_or(0));
                b.saturating_sub(a) + 1
            }
            None => 1,
        })
        .sum()
}

/// Best of five timed runs of independent FMA chains on one core, in
/// GFLOP/s, using the widest vector FMA the CPU has (scalar `mul_add`
/// otherwise).
pub fn fma_peak_gflops() -> f64 {
    (0..5).map(|_| fma_once()).fold(0.0, f64::max)
}

fn fma_once() -> f64 {
    const ITERS: usize = 2_000_000;
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            let t = Instant::now();
            // SAFETY: the CPU reports AVX-512F, checked just above.
            let sink = unsafe { x86::chains_avx512(ITERS) };
            let secs = t.elapsed().as_secs_f64();
            std::hint::black_box(sink);
            return (ITERS * x86::CHAINS * 16 * 2) as f64 / secs / 1e9;
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            let t = Instant::now();
            // SAFETY: the CPU reports AVX2 and FMA, checked just above.
            let sink = unsafe { x86::chains_avx2(ITERS) };
            let secs = t.elapsed().as_secs_f64();
            std::hint::black_box(sink);
            return (ITERS * x86::CHAINS * 8 * 2) as f64 / secs / 1e9;
        }
    }
    let mut acc = [1.0f32; 8];
    let t = Instant::now();
    for _ in 0..ITERS {
        for a in acc.iter_mut() {
            *a = a.mul_add(0.999_999, 1e-7);
        }
    }
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    (ITERS * 8 * 2) as f64 / secs / 1e9
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// Independent accumulators: enough to cover FMA latency × ports.
    pub const CHAINS: usize = 12;

    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn chains_avx512(iters: usize) -> f32 {
        let m = _mm512_set1_ps(0.999_999);
        let a = _mm512_set1_ps(1e-7);
        let mut acc = [_mm512_set1_ps(1.0); CHAINS];
        for _ in 0..iters {
            for v in acc.iter_mut() {
                *v = _mm512_fmadd_ps(*v, m, a);
            }
        }
        let mut sum = _mm512_setzero_ps();
        for v in acc {
            sum = _mm512_add_ps(sum, v);
        }
        _mm512_reduce_add_ps(sum)
    }

    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn chains_avx2(iters: usize) -> f32 {
        let m = _mm256_set1_ps(0.999_999);
        let a = _mm256_set1_ps(1e-7);
        let mut acc = [_mm256_set1_ps(1.0); CHAINS];
        for _ in 0..iters {
            for v in acc.iter_mut() {
                *v = _mm256_fmadd_ps(*v, m, a);
            }
        }
        let mut lanes = [0.0f32; 8];
        for v in acc {
            let mut tmp = [0.0f32; 8];
            // SAFETY: `tmp` holds the 8 f32 lanes the unaligned store
            // writes.
            _mm256_storeu_ps(tmp.as_mut_ptr(), v);
            for (l, t) in lanes.iter_mut().zip(tmp) {
                *l += t;
            }
        }
        lanes.iter().sum()
    }
}
