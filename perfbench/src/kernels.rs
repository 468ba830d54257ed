//! The benchmark's own small kernels.

use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::perf::KernelPerf;
use slate_kernels::grid::{BlockCoord, GridDim};
use slate_kernels::kernel::GpuKernel;
use std::sync::Arc;

/// Blocks of the `launch-rr` kernel.
pub const TINY_BLOCKS: u32 = 4;

/// `launch-rr`'s tiny kernel: block `b` adds 1 to word `b` (so each word
/// counts launches) and the launch's seeded `delta` to word `4 + b`.
pub struct Tiny {
    pub counters: Arc<GpuBuffer>,
    pub delta: u32,
}

impl GpuKernel for Tiny {
    fn name(&self) -> &str {
        "bench-tiny"
    }
    fn grid(&self) -> GridDim {
        GridDim::d1(TINY_BLOCKS)
    }
    fn perf(&self) -> KernelPerf {
        KernelPerf::synthetic("bench-tiny", 100.0, 64.0)
    }
    fn run_block(&self, b: BlockCoord) {
        self.counters.fetch_add_u32(b.x as usize, 1);
        self.counters
            .fetch_add_u32((TINY_BLOCKS + b.x) as usize, self.delta);
    }
}

/// Threads per block of [`Axpb`].
pub const AXPB_BLOCK: usize = 256;

/// `durable-churn`'s kernel, `out[i] = a * x[i] + b`.
pub struct Axpb {
    pub n: usize,
    pub a: f32,
    pub b: f32,
    pub x: Arc<GpuBuffer>,
    pub out: Arc<GpuBuffer>,
}

impl GpuKernel for Axpb {
    fn name(&self) -> &str {
        "axpb"
    }
    fn grid(&self) -> GridDim {
        GridDim::d1(self.n.div_ceil(AXPB_BLOCK) as u32)
    }
    fn perf(&self) -> KernelPerf {
        KernelPerf::synthetic("axpb", 400.0, 2048.0)
    }
    fn run_block(&self, blk: BlockCoord) {
        let lo = blk.x as usize * AXPB_BLOCK;
        for i in lo..(lo + AXPB_BLOCK).min(self.n) {
            self.out.store_f32(i, self.a * self.x.load_f32(i) + self.b);
        }
    }
}

/// The CUDA text `durable-churn` launches carry through the injector.
pub const AXPB_SOURCE: &str = r#"
__global__ void axpb(float* out, const float* x, float a, float b, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) out[i] = a * x[i] + b;
}
"#;

/// A host buffer holding `data`.
pub fn host_buffer(data: &[f32]) -> Arc<GpuBuffer> {
    let b = Arc::new(GpuBuffer::new(data.len() * 4));
    b.write_f32_slice(0, data);
    b
}
