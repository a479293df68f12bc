//! Argument parsing shared by the `rmsa` subcommands: a flag reader and
//! the serving-context flags.

use rmsa_bench::ExperimentContext;

/// Walks a subcommand's arguments, reading flag values on demand.
pub(crate) struct ArgReader<'a> {
    it: std::slice::Iter<'a, String>,
}

impl<'a> ArgReader<'a> {
    pub(crate) fn new(args: &'a [String]) -> Self {
        ArgReader { it: args.iter() }
    }

    pub(crate) fn next(&mut self) -> Option<&'a String> {
        self.it.next()
    }

    pub(crate) fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.it
            .next()
            .map(|s| s.as_str())
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    pub(crate) fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(flag)?
            .parse::<T>()
            .map_err(|e| format!("{flag}: {e}"))
    }
}

/// The serving-context flags `serve` and the snapshot subcommands share,
/// so a snapshot made with some flags is the one a daemon started with
/// the same flags expects.
#[derive(Default)]
pub(crate) struct CtxFlags {
    pub(crate) quick: bool,
    seed: Option<u64>,
    scale: Option<f64>,
    threads: Option<usize>,
    warm_rr: Option<usize>,
    eval_rr: Option<usize>,
    spread_rr: Option<usize>,
}

impl CtxFlags {
    pub(crate) fn new() -> Self {
        CtxFlags {
            quick: rmsa_bench::runner::env_flag("RMSA_BENCH_QUICK"),
            ..CtxFlags::default()
        }
    }

    /// Try to consume one flag; returns false when `arg` is not a context
    /// flag.
    pub(crate) fn consume(
        &mut self,
        arg: &str,
        reader: &mut ArgReader<'_>,
    ) -> Result<bool, String> {
        match arg {
            "--quick" => self.quick = true,
            "--seed" => self.seed = Some(reader.parsed::<u64>("--seed")?),
            "--scale" => self.scale = Some(reader.parsed::<f64>("--scale")?),
            "--threads" => self.threads = Some(reader.parsed::<usize>("--threads")?),
            "--warm-rr" => self.warm_rr = Some(reader.parsed::<usize>("--warm-rr")?),
            "--eval-rr" => self.eval_rr = Some(reader.parsed::<usize>("--eval-rr")?),
            "--spread-rr" => self.spread_rr = Some(reader.parsed::<usize>("--spread-rr")?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolve into the effective serving context: environment, then the
    /// smoke-scale profile under `--quick`, then explicit flags.
    pub(crate) fn resolve(&self) -> ExperimentContext {
        let base = ExperimentContext::from_env();
        let mut ctx = if self.quick {
            let mut quick_ctx = rmsa_service::tiny_serve_ctx(base.seed);
            quick_ctx.threads = base.threads;
            quick_ctx
        } else {
            base
        };
        if let Some(seed) = self.seed {
            ctx.seed = seed;
        }
        if let Some(scale) = self.scale {
            ctx.scale = scale;
        }
        if let Some(threads) = self.threads {
            ctx.threads = threads.max(1);
        }
        if let Some(warm_rr) = self.warm_rr {
            ctx.rma_max_rr = warm_rr;
        }
        if let Some(eval_rr) = self.eval_rr {
            ctx.eval_rr = eval_rr;
        }
        if let Some(spread_rr) = self.spread_rr {
            ctx.spread_rr = spread_rr;
        }
        ctx
    }
}
