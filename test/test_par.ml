(* Parallelism layer: work-stealing pool semantics, portfolio racing
   (bit-identity at jobs = 1, model/proof validity at jobs > 1,
   join-all on every exit path), domain-safety of the metrics
   registry, and the phase-saving ablation. *)

open Qca_sat
module Pool = Qca_par.Pool
module Portfolio = Qca_par.Portfolio
module Drup = Qca_check.Drup
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

(* {1 Portfolio: sequential bit-identity} *)

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

(* jobs = 1 must be the sequential solver, bit for bit: same verdict,
   same search (every counter in [stats]), same model. *)
let test_jobs1_bit_identity () =
  List.iter
    (fun seed ->
      let nvars = 30 and nclauses = 120 in
      let clauses = random_instance seed nvars nclauses in
      let a = fresh_solver clauses nvars in
      let b = fresh_solver clauses nvars in
      let ra = Solver.solve a in
      let o = Portfolio.solve_portfolio ~jobs:1 b in
      Alcotest.check result "same verdict" ra o.Portfolio.verdict;
      checki "winner is seat 0" 0 o.Portfolio.winner;
      checkb "no clone consulted" true (o.Portfolio.winner_solver = None);
      checkb "same search counters" true (Solver.stats a = Solver.stats b);
      if ra = Solver.Sat then
        for v = 0 to nvars - 1 do
          checkb "same model" (Solver.value a v) (Solver.value b v)
        done)
    [ 3; 17; 42; 99; 123 ]

(* {1 Portfolio: parallel verdict validity} *)

let test_portfolio_sat_model_valid () =
  let nvars = 40 in
  (* under-constrained, so SAT with near-certainty at these seeds *)
  let clauses = random_instance 7 nvars 80 in
  let base = fresh_solver clauses nvars in
  let o = Portfolio.solve_portfolio ~jobs:4 base in
  Alcotest.check result "sat" Solver.Sat o.Portfolio.verdict;
  checki "four seats raced" 4 o.Portfolio.seats_run;
  checkb "a seat won" true (o.Portfolio.winner >= 0);
  (* the winner's model was adopted into the base solver *)
  checkb "base model satisfies every clause" true
    (model_satisfies base clauses);
  checki "all domains joined" 0 (Portfolio.live_domains ())

let php_clauses pigeons holes =
  let var i j = (i * holes) + j in
  let place =
    List.init pigeons (fun i -> List.init holes (fun j -> Lit.pos (var i j)))
  in
  let excl = ref [] in
  for j = 0 to holes - 1 do
    for i1 = 0 to pigeons - 1 do
      for i2 = i1 + 1 to pigeons - 1 do
        excl := [ Lit.neg_of_var (var i1 j); Lit.neg_of_var (var i2 j) ] :: !excl
      done
    done
  done;
  (pigeons * holes, place @ !excl)

(* An UNSAT portfolio verdict is only as good as its certificate: the
   winning seat logs DRUP, and the independent checker must replay it
   against the original clauses. *)
let test_portfolio_unsat_certified () =
  let num_vars, clauses = php_clauses 6 5 in
  let base = fresh_solver clauses num_vars in
  let o = Portfolio.solve_portfolio ~proof:true ~jobs:4 base in
  Alcotest.check result "unsat" Solver.Unsat o.Portfolio.verdict;
  checkb "a seat won" true (o.Portfolio.winner >= 0);
  let winner =
    match o.Portfolio.winner_solver with
    | Some s -> s
    | None -> Alcotest.fail "winner solver missing"
  in
  let c = Drup.certify ~num_vars clauses ~solver:winner Solver.Unsat in
  checkb "DRUP replay certifies the winner" true
    (c.Drup.verdict = Drup.Certified);
  checki "all domains joined" 0 (Portfolio.live_domains ())

(* Seat configurations are a pure function of (base, index): the same
   portfolio twice is the same race. *)
let test_seats_deterministic () =
  let base = Solver.default_options in
  let a = Portfolio.seats ~base 6 and b = Portfolio.seats ~base 6 in
  checkb "seat tables equal" true (a = b);
  (match a with
  | s0 :: _ -> checkb "seat 0 is the base config" true (s0.Portfolio.seat_options = base)
  | [] -> Alcotest.fail "no seats");
  (* diversified seats carry deterministic non-zero RNG seeds *)
  List.iteri
    (fun i s ->
      if i > 0 then
        checkb "seat seed set" true (s.Portfolio.seat_options.Solver.seed <> 0))
    a

(* {1 Portfolio: join-all on every exit path} *)

let test_race_exception_joins_all () =
  let raised =
    try
      ignore
        (Portfolio.race
           (fun i ~should_stop ->
             ignore should_stop;
             if i = 1 then failwith "boom" else None)
           4);
      false
    with Failure msg ->
      Alcotest.(check string) "racer exception" "boom" msg;
      true
  in
  checkb "exception re-raised" true raised;
  checki "all domains joined after exception" 0 (Portfolio.live_domains ())

let test_portfolio_budget_exhaustion_joins_all () =
  let num_vars, clauses = php_clauses 7 6 in
  let base = fresh_solver clauses num_vars in
  let budget = Solver.budget ~timeout_ms:0.0 () in
  let o = Portfolio.solve_portfolio ~budget ~jobs:3 base in
  (match o.Portfolio.verdict with
  | Solver.Unknown _ -> ()
  | r -> Alcotest.failf "expected Unknown, got %a" (Alcotest.pp result) r);
  checki "no decisive seat" (-1) o.Portfolio.winner;
  checki "all domains joined after exhaustion" 0 (Portfolio.live_domains ())

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
          { Solver.default_options with seed = 12345 };
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

let suite =
  [
    ("metrics: 4-domain hammer is exact", `Quick, test_metrics_hammer);
    ("pool: parallel_map order", `Quick, test_pool_map_order);
    ("pool: jobs=1 is plain map", `Quick, test_pool_jobs1_is_map);
    ("pool: exception propagation", `Quick, test_pool_exception);
    ("pool: shutdown joins workers", `Quick, test_pool_shutdown);
    ("portfolio: jobs=1 bit-identity", `Quick, test_jobs1_bit_identity);
    ("portfolio: SAT model adopted and valid", `Quick,
     test_portfolio_sat_model_valid);
    ("portfolio: UNSAT winner DRUP-certified", `Quick,
     test_portfolio_unsat_certified);
    ("portfolio: seat table deterministic", `Quick, test_seats_deterministic);
    ("portfolio: exception joins all domains", `Quick,
     test_race_exception_joins_all);
    ("portfolio: budget exhaustion joins all domains", `Quick,
     test_portfolio_budget_exhaustion_joins_all);
    ("pipeline: concurrent governed ladder shape", `Quick,
     test_concurrent_governed_ladder_shape);
    ("sat: phase-saving ablations agree", `Quick,
     test_phase_ablation_verdicts_agree);
  ]
