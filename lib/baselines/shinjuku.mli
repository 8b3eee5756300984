(** Shinjuku baseline (Kaffes et al., NSDI'19) — the paper's main
    comparison system.

    Shinjuku runs a {e centralized} scheduler on a dedicated dispatcher
    core: one global FIFO queue, workers receive work only from the
    dispatcher, and preemption is triggered by the dispatcher posting an
    IPI through a directly-mapped APIC when it observes a worker
    exceeding the time quantum.  Consequences modeled here:

    - scheduling/preemption granularity is bounded by the dispatcher's
      scan loop (base cost + per-worker check each iteration);
    - every preemption costs an IPI send (dispatcher), IPI delivery and
      a receiver-side trampoline + context switch (worker) — several
      times LibPreemptible's UINTR path;
    - preempted requests return to the tail of the central queue;
    - the number of workers is limited by the APIC mapping
      ({!Hw.Params.t.apic_max_cores});
    - the quantum is static and must be profiled per workload. *)

type config = {
  n_workers : int;
  quantum_ns : int;  (** [max_int] disables preemption *)
  loop_base_ns : int;  (** dispatcher loop fixed cost per iteration *)
  per_worker_check_ns : int;  (** dispatcher cost to inspect one worker *)
  assign_cost_ns : int;  (** dispatcher cost to hand a request to a worker *)
  worker_preempt_cost_ns : int;
      (** receiver-side trampoline + context save + rescheduling work on
          preemption; calibrated against the preemption overheads the
          LibPreemptible paper reports for Shinjuku (Fig 1 right, and
          the implied per-preemption cost behind its Fig 8 workload-C
          throughput) *)
  net_cost_ns : int;  (** network-thread cost per arriving request *)
  costs : Ksim.Costs.t;
  hw : Hw.Params.t;
  seed : int64;
  max_events : int;
}

val default_config : n_workers:int -> quantum_ns:int -> config

val max_workers : config -> int
(** The most workers {!run} accepts: the APIC mapping limit,
    [cfg.hw.apic_max_cores]. *)

val run :
  ?probes:Preemptible.Server.probes ->
  ?warmup_ns:int ->
  config ->
  arrival:Workload.Arrival.t ->
  source:Workload.Source.t ->
  duration_ns:int ->
  Preemptible.Server.result
(** Same contract as {!Preemptible.Server.run}. *)
