(* Parallelism layer: work-stealing pool semantics, domain-safety of
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
  Pool.with_pool ~jobs:4 (fun pool ->
      checki "live workers" 3 (Pool.live_workers pool);
      let out =
        Pool.parallel_map pool ~f:(fun i -> i * i) (Array.init 100 Fun.id)
      in
      Alcotest.(check (array int))
        "squares in order"
        (Array.init 100 (fun i -> i * i))
        out)

let test_pool_jobs1_is_map () =
  Pool.with_pool ~jobs:1 (fun pool ->
      checki "no worker domains" 0 (Pool.live_workers pool);
      let out = Pool.parallel_map pool ~f:succ (Array.init 10 Fun.id) in
      Alcotest.(check (array int)) "plain map" (Array.init 10 succ) out)

let test_pool_exception () =
  let ran = Atomic.make 0 in
  let raised =
    try
      Pool.with_pool ~jobs:3 (fun pool ->
          ignore
            (Pool.parallel_map pool
               ~f:(fun i ->
                 Atomic.incr ran;
                 if i = 17 then failwith "task 17")
               (Array.init 40 Fun.id)));
      false
    with Failure msg ->
      Alcotest.(check string) "first exception" "task 17" msg;
      true
  in
  checkb "exception re-raised" true raised;
  (* every task still ran: a failing batch must not strand work *)
  checki "all tasks ran" 40 (Atomic.get ran)

let test_pool_shutdown () =
  let pool = Pool.create ~jobs:3 in
  checki "workers up" 2 (Pool.live_workers pool);
  Pool.shutdown pool;
  checki "workers joined" 0 (Pool.live_workers pool)

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
   over domains changes nothing but the timing columns: the rows of
   [evaluate_case ~jobs:2] equal those of [~jobs:1]. *)

let test_evaluate_case_jobs_parity () =
  let module E = Qca_experiments.Experiments in
  let hw = Qca_adapt.Hardware.d0 in
  let strip (r : E.row) = { r with E.elapsed_ms = 0.0; conflicts = 0 } in
  List.iter
    (fun (kase : Qca_workloads.Workloads.case) ->
      let rows jobs = List.map strip (E.evaluate_case ~jobs hw kase) in
      checkb (kase.Qca_workloads.Workloads.label ^ ": jobs 2 rows equal jobs 1")
        true
        (rows 1 = rows 2))
    (Qca_workloads.Workloads.simulation_suite ())

let suite =
  [
    ("metrics: 4-domain hammer is exact", `Quick, test_metrics_hammer);
    ("pool: parallel_map order", `Quick, test_pool_map_order);
    ("pool: jobs=1 is plain map", `Quick, test_pool_jobs1_is_map);
    ("pool: exception propagation", `Quick, test_pool_exception);
    ("pool: shutdown joins workers", `Quick, test_pool_shutdown);
    ("pipeline: concurrent governed ladder shape", `Quick,
     test_concurrent_governed_ladder_shape);
    ("sat: phase-saving ablations agree", `Quick,
     test_phase_ablation_verdicts_agree);
    ("experiments: jobs 2 rows equal jobs 1", `Quick,
     test_evaluate_case_jobs_parity);
  ]
