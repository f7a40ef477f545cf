//! A pass-through [`BackendExecutor`] that times every call into the
//! wrapped backend, so a traced suite run can split `run_gpu` into the
//! time the execution backend spent and the host-side remainder
//! (compile, argument binding, stream bookkeeping).
//!
//! The wrapper changes nothing it forwards: the test below checks that
//! every trait method reaches the inner backend, including the ones the
//! trait defaults, and that all eleven apps produce bit-identical
//! outputs through it.

use crate::trace;
use brook_auto::brook_ir::simd::ReduceKernel;
use brook_auto::brook_ir::IrProgram;
use brook_auto::{BackendExecutor, DrawMode, KernelLaunch, ReduceOp, Result, StreamDesc};
use brook_lang::CheckedProgram;
use perf_model::GpuRun;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Work and time the wrapped backend spent, accumulated over calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Kernel dispatches.
    pub launches: u64,
    /// Output elements over all dispatches.
    pub elements: u64,
    /// Nanoseconds in `dispatch`.
    pub dispatch_ns: u64,
    /// Nanoseconds in `write_stream`.
    pub write_ns: u64,
    /// Nanoseconds in `read_stream`.
    pub read_ns: u64,
    /// Nanoseconds in `reduce`.
    pub reduce_ns: u64,
    /// Nanoseconds in `create_stream`.
    pub create_ns: u64,
}

impl Tally {
    /// Every nanosecond spent inside the backend.
    pub fn backend_ns(&self) -> u64 {
        self.dispatch_ns + self.write_ns + self.read_ns + self.reduce_ns + self.create_ns
    }
}

/// The shared handle a caller keeps to read the tally after handing the
/// wrapper to a context.
pub type TallyHandle = Arc<Mutex<Tally>>;

/// Times and forwards every call to `inner`.
pub struct Timed {
    inner: Box<dyn BackendExecutor + Send>,
    tally: TallyHandle,
}

impl Timed {
    /// Wraps `inner`; the returned handle reads the running tally.
    pub fn new(inner: Box<dyn BackendExecutor + Send>) -> (Timed, TallyHandle) {
        let tally = TallyHandle::default();
        (
            Timed {
                inner,
                tally: Arc::clone(&tally),
            },
            tally,
        )
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
        add: fn(&mut Tally, u64),
    ) -> T {
        let t0 = Instant::now();
        let out = trace::span(name, || f(self));
        let ns = t0.elapsed().as_nanos() as u64;
        add(&mut self.tally.lock().expect("tally lock poisoned"), ns);
        out
    }
}

impl BackendExecutor for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn create_stream(&mut self, desc: StreamDesc) -> Result<usize> {
        self.timed(
            "core.create_stream",
            |s| s.inner.create_stream(desc),
            |t, ns| t.create_ns += ns,
        )
    }

    fn stream_desc(&self, index: usize) -> &StreamDesc {
        self.inner.stream_desc(index)
    }

    fn write_stream(&mut self, index: usize, values: &[f32]) -> Result<()> {
        self.timed(
            "core.write",
            |s| s.inner.write_stream(index, values),
            |t, ns| t.write_ns += ns,
        )
    }

    fn read_stream(&mut self, index: usize) -> Result<Vec<f32>> {
        self.timed(
            "core.read",
            |s| s.inner.read_stream(index),
            |t, ns| t.read_ns += ns,
        )
    }

    fn dispatch(&mut self, launch: &KernelLaunch<'_>) -> Result<()> {
        let elements: usize = launch
            .outputs
            .iter()
            .map(|(_, i)| self.inner.stream_desc(*i).len())
            .sum();
        let out = self.timed(
            "core.dispatch",
            |s| s.inner.dispatch(launch),
            |t, ns| t.dispatch_ns += ns,
        );
        let mut t = self.tally.lock().expect("tally lock poisoned");
        t.launches += 1;
        t.elements += elements as u64;
        out
    }

    fn reduce(
        &mut self,
        checked: &CheckedProgram,
        ir: &IrProgram,
        kernel: &str,
        op: ReduceOp,
        simd: Option<&ReduceKernel>,
        input: usize,
    ) -> Result<f32> {
        self.timed(
            "core.reduce",
            |s| s.inner.reduce(checked, ir, kernel, op, simd, input),
            |t, ns| t.reduce_ns += ns,
        )
    }

    fn set_dispatch_mode(&mut self, mode: DrawMode) {
        self.inner.set_dispatch_mode(mode);
    }

    fn set_memory_budget(&mut self, bytes: Option<usize>) {
        self.inner.set_memory_budget(bytes);
    }

    fn set_device_lost(&mut self, lost: bool) {
        self.inner.set_device_lost(lost);
    }

    fn counters(&self) -> GpuRun {
        self.inner.counters()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }

    fn memory_used(&self) -> usize {
        self.inner.memory_used()
    }

    fn memory_peak(&self) -> usize {
        self.inner.memory_peak()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brook_auto::{BoundArg, BrookContext, CertConfig, CpuBackend, ParallelCpuBackend};
    use std::collections::BTreeSet;

    /// Records which trait methods were called and answers each with a
    /// value the wrapper could not invent.
    struct Probe {
        calls: Arc<Mutex<BTreeSet<&'static str>>>,
        desc: StreamDesc,
    }

    impl Probe {
        fn hit(&self, name: &'static str) {
            self.calls.lock().expect("calls").insert(name);
        }
    }

    impl BackendExecutor for Probe {
        fn name(&self) -> &'static str {
            self.hit("name");
            "probe"
        }
        fn create_stream(&mut self, _desc: StreamDesc) -> Result<usize> {
            self.hit("create_stream");
            Ok(41)
        }
        fn stream_desc(&self, _index: usize) -> &StreamDesc {
            self.hit("stream_desc");
            &self.desc
        }
        fn write_stream(&mut self, _index: usize, _values: &[f32]) -> Result<()> {
            self.hit("write_stream");
            Ok(())
        }
        fn read_stream(&mut self, _index: usize) -> Result<Vec<f32>> {
            self.hit("read_stream");
            Ok(vec![4.5])
        }
        fn dispatch(&mut self, _launch: &KernelLaunch<'_>) -> Result<()> {
            self.hit("dispatch");
            Ok(())
        }
        fn reduce(
            &mut self,
            _checked: &CheckedProgram,
            _ir: &IrProgram,
            _kernel: &str,
            _op: ReduceOp,
            _simd: Option<&ReduceKernel>,
            _input: usize,
        ) -> Result<f32> {
            self.hit("reduce");
            Ok(-2.25)
        }
        fn set_dispatch_mode(&mut self, _mode: DrawMode) {
            self.hit("set_dispatch_mode");
        }
        fn set_memory_budget(&mut self, _bytes: Option<usize>) {
            self.hit("set_memory_budget");
        }
        fn set_device_lost(&mut self, _lost: bool) {
            self.hit("set_device_lost");
        }
        fn counters(&self) -> GpuRun {
            self.hit("counters");
            GpuRun {
                draw_calls: 17,
                ..GpuRun::default()
            }
        }
        fn reset_counters(&mut self) {
            self.hit("reset_counters");
        }
        fn memory_used(&self) -> usize {
            self.hit("memory_used");
            1234
        }
        fn memory_peak(&self) -> usize {
            self.hit("memory_peak");
            5678
        }
    }

    #[test]
    fn forwards_every_trait_method() {
        let calls = Arc::new(Mutex::new(BTreeSet::new()));
        let probe = Probe {
            calls: Arc::clone(&calls),
            desc: StreamDesc {
                shape: vec![3, 2],
                width: 1,
            },
        };
        let (mut w, tally) = Timed::new(Box::new(probe));
        let checked = brook_lang::parse_and_check(
            "kernel void f(float a<>, out float o<>) { o = a; }
             reduce void s(float a<>, reduce float r<>) { r += a; }",
        )
        .expect("check");
        let (ir, errs) = brook_auto::brook_ir::lower::lower_program(&checked);
        assert!(errs.is_empty(), "{errs:?}");
        let lanes = brook_auto::brook_ir::lanes::LaneProgram::plan_program(&ir);
        let tiers = brook_auto::brook_ir::tier::TierProgram::compile_program(&ir, &lanes);
        let launch = KernelLaunch {
            checked: &checked,
            ir: &ir,
            lanes: &lanes,
            tiers: &tiers,
            module_id: 1,
            kernel: "f",
            args: vec![("a".into(), BoundArg::Elem(0)), ("o".into(), BoundArg::Out(1))],
            outputs: vec![("o".into(), 1)],
        };

        assert_eq!(w.name(), "probe");
        assert_eq!(
            w.create_stream(StreamDesc {
                shape: vec![1],
                width: 1
            })
            .expect("create"),
            41
        );
        assert_eq!(w.stream_desc(0).shape, vec![3, 2]);
        w.write_stream(0, &[1.0]).expect("write");
        assert_eq!(w.read_stream(0).expect("read"), vec![4.5]);
        w.dispatch(&launch).expect("dispatch");
        assert_eq!(
            w.reduce(&checked, &ir, "s", ReduceOp::Add, None, 0)
                .expect("reduce"),
            -2.25
        );
        w.set_dispatch_mode(DrawMode::Full);
        w.set_memory_budget(Some(8));
        w.set_device_lost(false);
        assert_eq!(w.counters().draw_calls, 17);
        w.reset_counters();
        assert_eq!(w.memory_used(), 1234);
        assert_eq!(w.memory_peak(), 5678);

        let expected: BTreeSet<&str> = [
            "name",
            "create_stream",
            "stream_desc",
            "write_stream",
            "read_stream",
            "dispatch",
            "reduce",
            "set_dispatch_mode",
            "set_memory_budget",
            "set_device_lost",
            "counters",
            "reset_counters",
            "memory_used",
            "memory_peak",
        ]
        .into_iter()
        .collect();
        assert_eq!(*calls.lock().expect("calls"), expected);
        let t = *tally.lock().expect("tally");
        assert_eq!((t.launches, t.elements), (1, 6));
    }

    #[test]
    fn wrapped_backends_are_bit_identical_on_every_app() {
        type Make = fn() -> Box<dyn BackendExecutor + Send>;
        let backends: [(&str, Make); 2] = [
            ("cpu", || Box::new(CpuBackend::new())),
            ("cpu-parallel", || Box::new(ParallelCpuBackend::with_workers(2))),
        ];
        for app in brook_apps::all_apps() {
            let size = app.matrix_size().min(32);
            for (name, make) in backends {
                let mut plain = BrookContext::with_backend(make(), CertConfig::default());
                let (timed, tally) = Timed::new(make());
                let mut wrapped = BrookContext::with_backend(Box::new(timed), CertConfig::default());
                let a = app.run_gpu(&mut plain, size, 11).expect("plain run");
                let b = app.run_gpu(&mut wrapped, size, 11).expect("wrapped run");
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "{} on {name}", app.name());
                assert!(
                    tally.lock().expect("tally").launches > 0,
                    "{} on {name}",
                    app.name()
                );
            }
        }
    }
}
