module Circuit = Qca_circuit.Circuit
module Hardware = Qca_adapt.Hardware
module Pipeline = Qca_adapt.Pipeline
module Workloads = Qca_workloads.Workloads

(** Regeneration of every table and figure of the paper's evaluation
    (section V). See DESIGN.md section 5 for the experiment index and
    EXPERIMENTS.md for recorded paper-vs-measured outcomes. *)

type row = {
  case : string;  (** workload label *)
  method_ : string;
  fidelity_change : float;  (** Fig. 5: % change vs direct translation *)
  idle_decrease : float;  (** Fig. 6: % decrease vs direct translation *)
  duration : int;
  fidelity : float;
  idle : int;
  two_qubit_gates : int;
  degraded : bool;
      (** true when the governed adaptation for this row was served by
          a fallback tier or stopped early (see
          {!Pipeline.adapt_governed}); always false without a timeout *)
  tier : string;  (** ladder rung that served the request *)
  elapsed_ms : float;  (** wall-clock for this adaptation *)
  conflicts : int;  (** CDCL conflicts charged to the budget *)
  omt_rounds : int;  (** OMT improvement rounds (0 for non-SAT) *)
}

type progress = {
  p_case : string;
  p_method : string;
  p_tier : string;
  p_elapsed_ms : float;
}
(** One completed adaptation, reported through [on_progress] as the
    experiment matrix advances (e.g. for stderr progress lines). *)

val methods : Pipeline.method_ list
(** The seven methods of the figures. *)

val evaluate_case :
  ?methods:Pipeline.method_ list ->
  ?options:Qca_sat.Solver.options ->
  ?timeout_ms:float ->
  ?jobs:int ->
  ?on_progress:(progress -> unit) ->
  Hardware.t ->
  Workloads.case ->
  row list
(** Adapts one workload with every method and computes the Fig. 5/6
    metrics against the direct-translation baseline. [options] is
    forwarded to every solver the pipeline builds (e.g. for a heuristic
    ablation). [timeout_ms] bounds each adaptation independently
    (degraded rows are flagged). [jobs > 1] adapts the methods
    concurrently with {!Qca_par.Pool.parallel_map}; rows keep their
    order, and equal the sequential rows but for [elapsed_ms] and
    [conflicts]. *)

val fig5_fig6 :
  ?methods:Pipeline.method_ list ->
  ?options:Qca_sat.Solver.options ->
  ?timeout_ms:float ->
  ?jobs:int ->
  ?on_progress:(progress -> unit) ->
  Hardware.t ->
  Workloads.case list ->
  row list
(** The full Fig. 5 + Fig. 6 matrix for a gate-timing variant.
    [jobs > 1] spreads the whole (case × method) matrix over
    {!Qca_par.Pool.parallel_map} — each adaptation is an independent
    task; row order matches the sequential run. [on_progress]
    callbacks may then fire from worker domains (and out of matrix
    order); the built-in CLI progress printer tolerates this. *)

type sim_row = {
  sim_case : string;
  sim_method : string;
  hellinger_change : float;  (** Fig. 7 x-axis: % change vs direct *)
  sim_idle_decrease : float;  (** Fig. 7 y-axis *)
  hellinger : float;
  sim_degraded : bool;
}

val fig7 :
  ?methods:Pipeline.method_ list ->
  ?options:Qca_sat.Solver.options ->
  ?timeout_ms:float ->
  ?jobs:int ->
  ?on_progress:(progress -> unit) ->
  Hardware.t ->
  Workloads.case list ->
  sim_row list
(** Noisy density-matrix simulation (depolarizing per gate + thermal
    relaxation on idle windows, T2 = 2900 ns, T1 = 1000·T2): Hellinger
    fidelity change and idle-time decrease per method. [jobs > 1] runs
    one {!Qca_par.Pool.parallel_map} task per case (the ideal-state
    simulation is shared by that case's methods). *)

type headline = {
  max_fidelity_change : float;  (** paper: up to +15 % (Fig. 5) *)
  max_idle_decrease : float;  (** paper: up to 87 % *)
  max_hellinger_change : float;  (** paper: up to +40 % *)
}

val headline_of : row list -> sim_row list -> headline
(** Maxima over the SAT rows only (the abstract's claims). *)

val csv_header : string
val csv_of_rows : row list -> string
(** Structured export of the Fig. 5/6 rows, one line per
    (case, method) pair, including the governed-run telemetry columns
    (tier, elapsed_ms, conflicts, omt_rounds). [csv_header] is the
    first line. *)

val print_table1 : Format.formatter -> unit
val print_fig5 : Format.formatter -> row list -> unit
val print_fig6 : Format.formatter -> row list -> unit
val print_fig7 : Format.formatter -> sim_row list -> unit
val print_headline : Format.formatter -> headline -> unit

val print_eq11_example : Format.formatter -> unit
(** Reruns the section-IV worked example: partitions the example
    circuit, prints each block's Eq. 3/Eq. 11-style duration equation
    and the substitutions selected by each objective. *)
