(* Parallelism layer: parallel_map semantics, domain-safety of
   the metrics registry, governed adaptations on concurrent domains,
   the batch evaluator's jobs parity and the phase-saving ablation. *)

open Qca_sat
module Pool = Qca_par.Pool
module Obs = Qca_obs.Metrics
module Rng = Qca_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let result =
  Alcotest.testable
    (fun fmt r ->
      Format.pp_print_string fmt
        (match r with
        | Solver.Sat -> "SAT"
        | Solver.Unsat -> "UNSAT"
        | Solver.Unknown reason ->
          "UNKNOWN(" ^ Solver.string_of_stop_reason reason ^ ")"))
    ( = )

(* {1 Domain-safe metrics} *)

(* Four domains hammer one counter and one histogram concurrently; the
   registry must come out exact — no lost updates, no torn buckets. *)
let test_metrics_hammer () =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    (fun () ->
      let c = Obs.counter "par.test.hammer" in
      let h = Obs.histogram "par.test.hammer_hist" in
      let per_domain = 25_000 in
      let body () =
        for i = 1 to per_domain do
          Obs.incr c;
          Obs.add c 2;
          Obs.observe h (float_of_int (i mod 7))
        done
      in
      let domains = Array.init 3 (fun _ -> Domain.spawn body) in
      body ();
      Array.iter Domain.join domains;
      checki "counter exact" (4 * per_domain * 3) (Obs.value c);
      let s = Obs.summarize h in
      checki "histogram count exact" (4 * per_domain) s.Obs.h_count)

(* {1 Pool} *)

let test_pool_map_order () =
  let out =
    Pool.parallel_map ~jobs:4 ~f:(fun i -> i * i) (Array.init 100 Fun.id)
  in
  Alcotest.(check (array int))
    "squares in order"
    (Array.init 100 (fun i -> i * i))
    out

(* Sequential means on the calling domain, in index order. *)
let test_pool_jobs1_is_map () =
  let caller = Domain.self () in
  let seen = ref [] in
  let out =
    Pool.parallel_map ~jobs:1
      ~f:(fun i ->
        checkb "on the caller" true (Domain.self () = caller);
        seen := i :: !seen;
        succ i)
      (Array.init 10 Fun.id)
  in
  Alcotest.(check (array int)) "plain map" (Array.init 10 succ) out;
  Alcotest.(check (list int)) "index order" (List.init 10 (fun i -> 9 - i)) !seen

let test_pool_exception () =
  let ran = Atomic.make 0 in
  let raised =
    try
      ignore
        (Pool.parallel_map ~jobs:3
           ~f:(fun i ->
             Atomic.incr ran;
             if i = 17 then failwith "task 17")
           (Array.init 40 Fun.id));
      false
    with Failure msg ->
      Alcotest.(check string) "first exception" "task 17" msg;
      true
  in
  checkb "exception re-raised" true raised;
  (* every task still ran: a failing batch must not strand work *)
  checki "all tasks ran" 40 (Atomic.get ran)

(* Every spawned domain that ran a task has exited (its [Domain.at_exit]
   hook has run) by the time [parallel_map] returns or raises. The first
   task waits for a second one to start, so at least one spawned domain
   takes part, which needs a second core. *)
let test_pool_no_domain_left () =
  if Domain.recommended_domain_count () < 2 then Alcotest.skip ();
  let started = Atomic.make 0 in
  let workers = Atomic.make 0 and exited = Atomic.make 0 in
  let registered = Domain.DLS.new_key (fun () -> false) in
  let f i =
    Atomic.incr started;
    while Atomic.get started < 2 do
      Domain.cpu_relax ()
    done;
    if (not (Domain.is_main_domain ())) && not (Domain.DLS.get registered)
    then begin
      Domain.DLS.set registered true;
      Atomic.incr workers;
      Domain.at_exit (fun () -> Atomic.incr exited)
    end;
    if i = 5 then failwith "task 5";
    i
  in
  List.iter
    (fun fail ->
      Atomic.set started 0;
      let n = if fail then 8 else 5 in
      (try ignore (Pool.parallel_map ~jobs:3 ~f (Array.init n Fun.id))
       with Failure _ -> ());
      checkb "a spawned domain ran tasks" true (Atomic.get workers > 0);
      checki "every spawned domain exited" (Atomic.get workers)
        (Atomic.get exited))
    [ false; true ]

(* Domains beyond the cores only contend for them: whatever [jobs] asks
   for, at most [Domain.recommended_domain_count () - 1] domains are
   spawned. Each task sleeps, so every spawned domain takes one and
   counts itself through its [Domain.at_exit] hook. *)
let test_pool_clamped_to_cores () =
  let spawned = Atomic.make 0 and exited = Atomic.make 0 in
  let registered = Domain.DLS.new_key (fun () -> false) in
  let f i =
    if (not (Domain.is_main_domain ())) && not (Domain.DLS.get registered)
    then begin
      Domain.DLS.set registered true;
      Atomic.incr spawned;
      Domain.at_exit (fun () -> Atomic.incr exited)
    end;
    Unix.sleepf 0.002;
    i
  in
  let jobs = 8 in
  Alcotest.(check (array int))
    "plain map" (Array.init 64 Fun.id)
    (Pool.parallel_map ~jobs ~f (Array.init 64 Fun.id));
  let cap = min jobs (Domain.recommended_domain_count ()) - 1 in
  checkb
    (Printf.sprintf "%d spawned, at most %d" (Atomic.get spawned) cap)
    true
    (Atomic.get spawned <= cap);
  checki "every spawned domain exited" (Atomic.get spawned) (Atomic.get exited)

(* {1 Random instances} *)

let random_instance seed nvars nclauses =
  let rng = Rng.create seed in
  List.init nclauses (fun _ ->
      List.init 3 (fun _ -> Lit.make (Rng.int rng nvars) (Rng.bool rng)))

let fresh_solver ?options clauses nvars =
  let s = Solver.create ?options () in
  for _ = 1 to nvars do
    ignore (Solver.new_var s)
  done;
  List.iter (Solver.add_clause s) clauses;
  s

let model_satisfies s clauses =
  List.for_all
    (fun clause ->
      List.exists
        (fun l ->
          if Lit.sign l then Solver.value s (Lit.var l)
          else not (Solver.value s (Lit.var l)))
        clause)
    clauses

(* {1 Governed adaptations on concurrent domains} *)

module Pipeline = Qca_adapt.Pipeline
module Hardware = Qca_adapt.Hardware
module Lint = Qca_adapt.Lint
module Workloads = Qca_workloads.Workloads

(* The serve daemon runs governed adaptations concurrently on worker
   domains, each with its own fault plan. Concurrency must not warp the
   degradation ladder: an injected exhaustion lands the same tier on a
   busy machine as on an idle one, and neighbouring requests are
   unaffected. *)
let test_concurrent_governed_ladder_shape () =
  let module Fault = Qca_util.Fault in
  let module Lint = Qca_adapt.Lint in
  let hw = Hardware.d0 in
  let meth = Pipeline.Sat Qca_adapt.Model.Sat_p in
  let circuit = Workloads.random_template ~seed:11 ~num_qubits:3 ~depth:8 in
  (* expected tier for each plan, taken from a sequential run *)
  let plans =
    [
      (fun () -> Fault.none);
      (fun () -> Fault.inject [ (Fault.Omt_round, 1, Fault.Exhaust) ]);
      (fun () -> Fault.inject [ (Fault.Warm_start, 1, Fault.Exhaust) ]);
      (fun () ->
        Fault.inject
          [ (Fault.Warm_start, 1, Fault.Exhaust); (Fault.Greedy_step, 1, Fault.Exhaust) ]);
    ]
  in
  let governed plan =
    let budget = Solver.budget ~fault:(plan ()) () in
    Pipeline.adapt_governed ~budget ~jobs:1 hw meth circuit
  in
  let sequential = List.map (fun p -> (governed p).Pipeline.tier) plans in
  (* same plans, solved concurrently on 4 domains *)
  let domains = List.map (fun p -> Domain.spawn (fun () -> governed p)) plans in
  let concurrent = List.map Domain.join domains in
  List.iteri
    (fun i (expected, o) ->
      checkb
        (Printf.sprintf "plan %d: tier matches the sequential run" i)
        true
        (o.Pipeline.tier = expected);
      let issues =
        Lint.certify_adaptation hw ~original:circuit ~adapted:o.Pipeline.circuit
          ?claimed_makespan:o.Pipeline.claimed_makespan ()
      in
      checkb "outcome certifies" true (Lint.errors issues = []))
    (List.combine sequential concurrent)

(* {1 Phase-saving ablation} *)

let test_phase_ablation_verdicts_agree () =
  List.iter
    (fun seed ->
      let nvars = 25 and nclauses = 100 in
      let clauses = random_instance (seed + 500) nvars nclauses in
      let configs =
        [
          Solver.default_options;
          { Solver.default_options with use_phase_saving = false };
          { Solver.default_options with phase_init = true };
        ]
      in
      let verdicts =
        List.map
          (fun options ->
            let s = fresh_solver ~options clauses nvars in
            let r = Solver.solve s in
            if r = Solver.Sat then
              checkb "model valid under ablation" true
                (model_satisfies s clauses);
            r)
          configs
      in
      match verdicts with
      | v :: rest ->
        List.iter (fun v' -> Alcotest.check result "ablations agree" v v') rest
      | [] -> ())
    [ 1; 2; 3; 4 ]

(* {1 Batch evaluation: jobs parity}

   Every adaptation builds its own model, so spreading a case's methods
   (or fig7's cases) over domains changes nothing but the timing
   columns: the rows at [~jobs:2] and [~jobs:4] equal those at
   [~jobs:1]. *)

let test_evaluate_case_jobs_parity () =
  let module E = Qca_experiments.Experiments in
  let hw = Qca_adapt.Hardware.d0 in
  let strip (r : E.row) = { r with E.elapsed_ms = 0.0; conflicts = 0 } in
  List.iter
    (fun (kase : Qca_workloads.Workloads.case) ->
      let rows jobs = List.map strip (E.evaluate_case ~jobs hw kase) in
      let seq = rows 1 in
      List.iter
        (fun jobs ->
          checkb
            (Printf.sprintf "%s: jobs %d rows equal jobs 1"
               kase.Qca_workloads.Workloads.label jobs)
            true
            (rows jobs = seq))
        [ 2; 4 ])
    (Qca_workloads.Workloads.simulation_suite ())

let test_fig7_jobs_parity () =
  let module E = Qca_experiments.Experiments in
  let hw = Qca_adapt.Hardware.d0 in
  let cases = Qca_workloads.Workloads.simulation_suite () in
  let seq = E.fig7 ~jobs:1 hw cases in
  List.iter
    (fun jobs ->
      checkb
        (Printf.sprintf "fig7: jobs %d rows equal jobs 1" jobs)
        true
        (E.fig7 ~jobs hw cases = seq))
    [ 2; 4 ]

let suite =
  [
    ("metrics: 4-domain hammer is exact", `Quick, test_metrics_hammer);
    ("pool: parallel_map order", `Quick, test_pool_map_order);
    ("pool: jobs=1 is plain map", `Quick, test_pool_jobs1_is_map);
    ("pool: exception propagation", `Quick, test_pool_exception);
    ("pool: no domain left alive", `Quick, test_pool_no_domain_left);
    ("pipeline: concurrent governed ladder shape", `Quick,
     test_concurrent_governed_ladder_shape);
    ("sat: phase-saving ablations agree", `Quick,
     test_phase_ablation_verdicts_agree);
    ("experiments: jobs 2 rows equal jobs 1", `Quick,
     test_evaluate_case_jobs_parity);
    ("experiments: fig7 jobs rows equal jobs 1", `Quick,
     test_fig7_jobs_parity);
    ("pool: at most one domain per core", `Quick, test_pool_clamped_to_cores);
  ]
