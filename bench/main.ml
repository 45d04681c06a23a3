(* Benchmark and evaluation harness.

   Running this executable regenerates every table and figure of the
   paper (printed as text tables, recorded in EXPERIMENTS.md) and then
   runs one Bechamel micro-benchmark per experiment plus the ablation
   benchmarks called out in DESIGN.md section 7.

     dune exec bench/main.exe                    # full evaluation (several minutes)
     dune exec bench/main.exe -- --fast          # reduced suite, for development
     dune exec bench/main.exe -- --json out.json # also dump the Bechamel rows *)

open Bechamel
module E = Qca_experiments.Experiments
module Workloads = Qca_workloads.Workloads
module Circuit = Qca_circuit.Circuit
module Block = Qca_circuit.Block
module Gate = Qca_circuit.Gate
open Qca_adapt
module Sat = Qca_sat.Solver
module Lit = Qca_sat.Lit
module Totalizer = Qca_pseudo_bool.Totalizer
module Density = Qca_sim.Density

let fmt = Format.std_formatter
let fast = Array.exists (fun a -> a = "--fast") Sys.argv

let json_file =
  let file = ref None in
  Array.iteri
    (fun i a ->
      if a = "--json" && i + 1 < Array.length Sys.argv then
        file := Some Sys.argv.(i + 1))
    Sys.argv;
  !file

(* Domain count for the parallel A/B rows: --jobs N, else $QCA_JOBS,
   else 4 (the A/B comparison is the point of those rows, so the
   default is parallel even though the rest of the harness is not). *)
let jobs =
  let j = ref None in
  Array.iteri
    (fun i a ->
      if a = "--jobs" && i + 1 < Array.length Sys.argv then
        j := int_of_string_opt Sys.argv.(i + 1))
    Sys.argv;
  let env = Option.bind (Sys.getenv_opt "QCA_JOBS") int_of_string_opt in
  match (!j, env) with
  | Some n, _ when n > 0 -> n
  | _, Some n when n > 0 -> n
  | _ -> 4

(* {1 Experiment regeneration (Table I, Eq. 11, Figs. 5-7)} *)

let run_experiments () =
  E.print_table1 fmt;
  E.print_eq11_example fmt;
  let suite = if fast then Workloads.simulation_suite () else Workloads.evaluation_suite () in
  let sections =
    if fast then [ (Hardware.d0, suite) ]
    else [ (Hardware.d0, suite); (Hardware.d1, suite) ]
  in
  let all_rows = ref [] in
  List.iter
    (fun (hw, suite) ->
      Format.fprintf fmt "---- gate characteristics %s ----@." hw.Hardware.name;
      let rows = E.fig5_fig6 hw suite in
      all_rows := !all_rows @ rows;
      E.print_fig5 fmt rows;
      E.print_fig6 fmt rows)
    sections;
  let sim_rows = E.fig7 Hardware.d0 (Workloads.simulation_suite ()) in
  E.print_fig7 fmt sim_rows;
  E.print_headline fmt (E.headline_of !all_rows sim_rows);
  Format.pp_print_flush fmt ()

(* {1 Bechamel micro-benchmarks} *)

let hw = Hardware.d0

let bench_circuit = Workloads.quantum_volume ~seed:77 ~num_qubits:3 ~layers:2

let paper_part = Block.partition bench_circuit
let paper_subs = Rules.find_all hw paper_part

let php_instance options =
  (* PHP(6,5): a small but non-trivial UNSAT instance. Returns the
     solver so the JSON telemetry can read the search counters back. *)
  let s = Sat.create ~options () in
  let v = Array.init 6 (fun _ -> Array.init 5 (fun _ -> Sat.new_var s)) in
  for i = 0 to 5 do
    Sat.add_clause s (Array.to_list (Array.map Lit.pos v.(i)))
  done;
  for j = 0 to 4 do
    for i1 = 0 to 5 do
      for i2 = i1 + 1 to 5 do
        Sat.add_clause s [ Lit.neg_of_var v.(i1).(j); Lit.neg_of_var v.(i2).(j) ]
      done
    done
  done;
  assert (Sat.solve s = Sat.Unsat);
  s

let totalizer_instance ~max_out =
  let s = Sat.create () in
  let terms =
    List.init 24 (fun i -> (Lit.pos (Sat.new_var s), 37 + (13 * (i mod 5))))
  in
  (match max_out with
  | None -> ignore (Totalizer.assume_at_most s terms 500)
  | Some r -> ignore (Totalizer.assume_at_most_approx ~resolution:r s terms 500));
  s

let noise =
  {
    Density.gate_fidelity = Hardware.fidelity hw;
    duration = Hardware.duration hw;
    t1 = hw.Hardware.t1;
    t2 = hw.Hardware.t2;
  }

let adapted_for_sim = Pipeline.adapt hw (Pipeline.Sat Model.Sat_p) bench_circuit

let stage = Staged.stage

let tests =
  Test.make_grouped ~name:"qca"
    [
      (* E1: Table I *)
      Test.make ~name:"table1/hardware-lookup"
        (stage (fun () ->
             ignore (Hardware.duration hw (Gate.Two (Gate.Cz, 0, 1)));
             ignore (Hardware.fidelity hw (Gate.Two (Gate.Swap_c, 0, 1)))));
      (* E5: section IV example — model construction *)
      Test.make ~name:"eq11/model-build"
        (stage (fun () -> ignore (Model.build hw paper_part paper_subs)));
      (* E2 (Fig. 5): fidelity-objective adaptation *)
      Test.make ~name:"fig5/sat-f-adapt"
        (stage (fun () ->
             ignore (Pipeline.adapt hw (Pipeline.Sat Model.Sat_f) bench_circuit)));
      (* E3 (Fig. 6): idle-time-objective adaptation *)
      Test.make ~name:"fig6/sat-r-adapt"
        (stage (fun () ->
             ignore (Pipeline.adapt hw (Pipeline.Sat Model.Sat_r) bench_circuit)));
      (* E4 (Fig. 7): noisy density-matrix simulation *)
      Test.make ~name:"fig7/noisy-sim"
        (stage (fun () -> ignore (Density.run_noisy noise adapted_for_sim)));
      (* Ablations: CDCL heuristics (DESIGN.md section 7) *)
      Test.make ~name:"ablation-sat/default"
        (stage (fun () -> ignore (php_instance Sat.default_options)));
      Test.make ~name:"ablation-sat/no-vsids"
        (stage (fun () ->
             ignore (php_instance { Sat.default_options with use_vsids = false })));
      Test.make ~name:"ablation-sat/no-restarts"
        (stage (fun () ->
             ignore
               (php_instance { Sat.default_options with use_restarts = false })));
      Test.make ~name:"ablation-sat/no-deletion"
        (stage (fun () ->
             ignore
               (php_instance
                  { Sat.default_options with use_clause_deletion = false })));
      Test.make ~name:"ablation-sat/no-phase-saving"
        (stage (fun () ->
             ignore
               (php_instance
                  { Sat.default_options with use_phase_saving = false })));
      (* Ablations: exact vs thinned PB encodings *)
      Test.make ~name:"ablation-encoding/totalizer-exact"
        (stage (fun () -> ignore (totalizer_instance ~max_out:None)));
      Test.make ~name:"ablation-encoding/totalizer-thinned"
        (stage (fun () -> ignore (totalizer_instance ~max_out:(Some 16))));
      (* Ablations: exact OMT vs the greedy heuristic *)
      Test.make ~name:"ablation-omt/sat-p"
        (stage (fun () ->
             ignore (Pipeline.adapt hw (Pipeline.Sat Model.Sat_p) bench_circuit)));
      Test.make ~name:"ablation-omt/greedy-p"
        (stage (fun () ->
             ignore (Pipeline.adapt hw (Pipeline.Greedy Model.Sat_p) bench_circuit)));
    ]

(* {1 Governed adaptation rows}

   One unbudgeted and one deliberately starved run of the governed
   pipeline, so the JSON report records both the full-service cost and
   the degradation behavior under a 1 ms deadline. *)

type json_row = {
  ns : float;  (** time per run (microbench) or total elapsed (governed) *)
  budget_exhausted : bool;
  degraded_tier : string option;  (** serving tier when degraded *)
  proof_checked : bool option;  (** DRUP replay verdict, when measured *)
  proof_overhead_ms : float option;  (** proof logging cost per solve *)
  conflicts : int option;  (** CDCL conflicts charged (governed rows) *)
  propagations : int option;
  omt_rounds : int option;
  row_jobs : int option;  (** domain count used (parallel rows) *)
  cores : int option;  (** detected host core count (parallel rows) *)
}

let plain_row ns =
  { ns; budget_exhausted = false; degraded_tier = None; proof_checked = None;
    proof_overhead_ms = None; conflicts = None; propagations = None;
    omt_rounds = None; row_jobs = None; cores = None }

(* {1 Micro-benchmark telemetry}

   One un-timed rerun of every solver-touching micro-benchmark, with
   the search counters read back afterwards, so the JSON rows carry
   conflicts/propagations/omt_rounds instead of nulls and the ablation
   rows are comparable on work done, not just wall time. All
   workloads here are deterministic, so the counters match what the
   timed Bechamel runs did. *)

let sat_counters s =
  let st = Sat.stats s in
  (st.Sat.conflicts, st.Sat.propagations, 0)

let adapt_counters method_ =
  let o =
    Pipeline.adapt_governed ~budget:(Sat.budget ()) hw method_ bench_circuit
  in
  ( o.Pipeline.spent.Pipeline.conflicts,
    o.Pipeline.spent.Pipeline.propagations,
    o.Pipeline.info.Pipeline.omt_rounds )

let model_build_counters () =
  let m = Model.build hw paper_part paper_subs in
  let st = Model.sat_stats m in
  (st.Sat.conflicts, st.Sat.propagations, 0)

let micro_telemetry () =
  [
    ("qca/eq11/model-build", model_build_counters ());
    ("qca/fig5/sat-f-adapt", adapt_counters (Pipeline.Sat Model.Sat_f));
    ("qca/fig6/sat-r-adapt", adapt_counters (Pipeline.Sat Model.Sat_r));
    ( "qca/ablation-sat/default",
      sat_counters (php_instance Sat.default_options) );
    ( "qca/ablation-sat/no-vsids",
      sat_counters (php_instance { Sat.default_options with use_vsids = false })
    );
    ( "qca/ablation-sat/no-restarts",
      sat_counters
        (php_instance { Sat.default_options with use_restarts = false }) );
    ( "qca/ablation-sat/no-deletion",
      sat_counters
        (php_instance { Sat.default_options with use_clause_deletion = false })
    );
    ( "qca/ablation-sat/no-phase-saving",
      sat_counters
        (php_instance { Sat.default_options with use_phase_saving = false }) );
    ( "qca/ablation-encoding/totalizer-exact",
      sat_counters (totalizer_instance ~max_out:None) );
    ( "qca/ablation-encoding/totalizer-thinned",
      sat_counters (totalizer_instance ~max_out:(Some 16)) );
    ("qca/ablation-omt/sat-p", adapt_counters (Pipeline.Sat Model.Sat_p));
    ("qca/ablation-omt/greedy-p", adapt_counters (Pipeline.Greedy Model.Sat_p));
  ]

let deep_circuit =
  lazy (Workloads.random_template ~seed:160 ~num_qubits:3 ~depth:160)

let governed_rows () =
  let run ?(circuit = bench_circuit) name budget =
    let o = Pipeline.adapt_governed ~budget hw (Pipeline.Sat Model.Sat_p) circuit in
    ( "qca/governed/" ^ name,
      {
        (plain_row (o.Pipeline.spent.Pipeline.elapsed_ms *. 1e6)) with
        budget_exhausted = o.Pipeline.reason <> None;
        degraded_tier =
          (if Pipeline.degraded o then Some (Pipeline.tier_name o.Pipeline.tier)
           else None);
        conflicts = Some o.Pipeline.spent.Pipeline.conflicts;
        propagations = Some o.Pipeline.spent.Pipeline.propagations;
        omt_rounds = Some o.Pipeline.info.Pipeline.omt_rounds;
      } )
  in
  [
    run "sat-p-unbudgeted" (Sat.budget ());
    run "sat-p-deep-1ms" ~circuit:(Lazy.force deep_circuit)
      (Sat.budget ~timeout_ms:1.0 ());
  ]

(* {1 Proof-checking overhead}

   Solves the ablation PHP(6,5) instance with proof logging off and on,
   replays the DRUP log through the independent checker, and reports the
   per-solve logging overhead next to the replay verdict. DESIGN.md
   section 7.3 budgets this at under 10%% of baseline solve time. *)

module Drup = Qca_check.Drup
module Clock = Qca_util.Clock

let php_problem () =
  let pigeons = 6 and holes = 5 in
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

let proof_rows () =
  let num_vars, clauses = php_problem () in
  let solve ~proof =
    let s = Sat.create () in
    if proof then Sat.enable_proof s;
    for _ = 1 to num_vars do
      ignore (Sat.new_var s)
    done;
    List.iter (Sat.add_clause s) clauses;
    assert (Sat.solve s = Sat.Unsat);
    s
  in
  let reps = if fast then 5 else 20 in
  let time_solves ~proof =
    let best = ref infinity in
    let last = ref None in
    for _ = 1 to reps do
      let t0 = Clock.now () in
      let s = solve ~proof in
      best := Float.min !best (Clock.ms_between t0 (Clock.now ()));
      last := Some s
    done;
    (!best, Option.get !last)
  in
  let base_ms, _ = time_solves ~proof:false in
  let logged_ms, s = time_solves ~proof:true in
  let replay_t0 = Clock.now () in
  let outcome = Drup.certify ~num_vars clauses ~solver:s Sat.Unsat in
  let replay_ms = Clock.ms_between replay_t0 (Clock.now ()) in
  let certified = outcome.Drup.verdict = Drup.Certified in
  let overhead_ms = Float.max 0.0 (logged_ms -. base_ms) in
  ( base_ms, logged_ms, replay_ms, certified,
    [
      ( "qca/proof/php-solve-logged",
        { (plain_row (logged_ms *. 1e6)) with
          proof_checked = Some certified;
          proof_overhead_ms = Some overhead_ms } );
      ("qca/proof/php-replay", plain_row (replay_ms *. 1e6));
    ] )

(* {1 Parallel batch adaptation}

   A/B wall-clock of the same Fig. 5/6 batch at jobs = 1 and jobs = N,
   interleaved rep by rep so machine drift charges both sides equally
   (best-of-reps reported). The host's core count is recorded next to
   the timings: on a single-core host the jobs-N batch cannot win and
   the rows simply record what the host delivered. *)

let par_rows () =
  let suite = Workloads.simulation_suite () in
  let batch n =
    let t0 = Clock.now () in
    ignore (E.fig5_fig6 ~jobs:n hw suite);
    Clock.ms_between t0 (Clock.now ())
  in
  let reps = if fast then 1 else 3 in
  let best_seq = ref infinity and best_par = ref infinity in
  for _ = 1 to reps do
    best_seq := Float.min !best_seq (batch 1);
    best_par := Float.min !best_par (batch jobs)
  done;
  let cores = Domain.recommended_domain_count () in
  (* Every parallel row records both the jobs it ran with and the
     detected core count, so the JSON is self-describing — no synthetic
     "cores" row with a null timing. *)
  ( !best_seq, !best_par, cores,
    [
      ( "qca/par/batch-jobs-1",
        { (plain_row (!best_seq *. 1e6)) with
          row_jobs = Some 1; cores = Some cores } );
      ( Printf.sprintf "qca/par/batch-jobs-%d" jobs,
        { (plain_row (!best_par *. 1e6)) with
          row_jobs = Some jobs; cores = Some cores } );
    ] )

(* {1 Flight-recorder overhead}

   A/B of the ablation PHP(6,5) solve with the ring recorder disabled
   and enabled, interleaved rep by rep so machine drift charges both
   sides equally (best-of-reps reported). ISSUE acceptance: recorder-on
   stays within a few percent of recorder-off — the recorder is meant
   to be left on in production. *)

module Ring = Qca_obs.Ring

let ring_rows () =
  let solve () = ignore (php_instance Sat.default_options) in
  let time f =
    let t0 = Clock.now () in
    f ();
    Clock.ms_between t0 (Clock.now ())
  in
  let reps = if fast then 5 else 20 in
  let best_off = ref infinity and best_on = ref infinity in
  let was_on = Ring.enabled () in
  for _ = 1 to reps do
    Ring.set_enabled false;
    best_off := Float.min !best_off (time solve);
    Ring.set_enabled true;
    best_on := Float.min !best_on (time solve)
  done;
  let recorded = Ring.total_recorded () in
  Ring.set_enabled was_on;
  Ring.reset ();
  ( !best_off, !best_on, recorded,
    [
      ("qca/ring/ablation-sat-off", plain_row (!best_off *. 1e6));
      ("qca/ring/ablation-sat-on", plain_row (!best_on *. 1e6));
    ] )

let run_benchmarks () =
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second (if fast then 0.2 else 0.5))
      ~stabilize:false ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name result acc ->
        let ns =
          match Analyze.OLS.estimates result with
          | Some [ est ] -> est
          | Some _ | None -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  Format.fprintf fmt "== Bechamel micro-benchmarks (monotonic clock) ==@.";
  Format.fprintf fmt "%-42s %16s@." "benchmark" "time/run";
  let pp_time ns =
    if Float.is_nan ns then "n/a"
    else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.iter
    (fun (name, ns) -> Format.fprintf fmt "%-42s %16s@." name (pp_time ns))
    rows;
  let governed = governed_rows () in
  Format.fprintf fmt "== Governed adaptation (degradation ladder) ==@.";
  List.iter
    (fun (name, r) ->
      Format.fprintf fmt "%-42s %16s  %s@." name (pp_time r.ns)
        (match r.degraded_tier with
        | None -> "full service"
        | Some t -> "degraded -> " ^ t))
    governed;
  let base_ms, logged_ms, replay_ms, certified, proof = proof_rows () in
  Format.fprintf fmt "== Proof checking overhead (PHP 6,5) ==@.";
  Format.fprintf fmt
    "solve %.2f ms baseline, %.2f ms with proof logging (+%.1f%%), replay %.2f \
     ms, verdict %s@."
    base_ms logged_ms
    (if base_ms > 0.0 then 100.0 *. (logged_ms -. base_ms) /. base_ms else 0.0)
    replay_ms
    (if certified then "certified" else "NOT certified");
  let seq_ms, par_ms, cores, par = par_rows () in
  Format.fprintf fmt "== Parallel batch adaptation (%d core(s)) ==@." cores;
  Format.fprintf fmt
    "fig5/6 batch: %.1f ms at jobs=1, %.1f ms at jobs=%d (speedup %.2fx)@."
    seq_ms par_ms jobs
    (if par_ms > 0.0 then seq_ms /. par_ms else Float.nan);
  let ring_off, ring_on, ring_events, ring = ring_rows () in
  Format.fprintf fmt "== Flight recorder overhead (PHP 6,5) ==@.";
  Format.fprintf fmt
    "solve %.2f ms recorder off, %.2f ms recorder on (%+.1f%%), %d events \
     recorded@."
    ring_off ring_on
    (if ring_off > 0.0 then 100.0 *. (ring_on -. ring_off) /. ring_off else 0.0)
    ring_events;
  Format.pp_print_flush fmt ();
  match json_file with
  | None -> ()
  | Some file ->
    (* object per row:
       { ns, budget_exhausted, degraded_tier, proof_checked,
         proof_overhead_ms, conflicts, propagations, omt_rounds,
         jobs, cores } *)
    let telemetry = micro_telemetry () in
    let micro (name, ns) =
      match List.assoc_opt name telemetry with
      | None -> (name, plain_row ns)
      | Some (c, p, r) ->
        ( name,
          {
            (plain_row ns) with
            conflicts = Some c;
            propagations = Some p;
            omt_rounds = Some r;
          } )
    in
    let all =
      List.map micro rows @ governed @ proof @ par @ ring
    in
    let int_opt = function None -> "null" | Some n -> string_of_int n in
    let oc = open_out file in
    output_string oc "{\n";
    List.iteri
      (fun i (name, r) ->
        Printf.fprintf oc
          "  %S: {\"ns\": %s, \"budget_exhausted\": %b, \"degraded_tier\": %s, \
           \"proof_checked\": %s, \"proof_overhead_ms\": %s, \"conflicts\": %s, \
           \"propagations\": %s, \"omt_rounds\": %s, \"jobs\": %s, \
           \"cores\": %s}%s\n"
          name
          (if Float.is_nan r.ns then "null" else Printf.sprintf "%.2f" r.ns)
          r.budget_exhausted
          (match r.degraded_tier with None -> "null" | Some t -> Printf.sprintf "%S" t)
          (match r.proof_checked with None -> "null" | Some b -> string_of_bool b)
          (match r.proof_overhead_ms with
          | None -> "null"
          | Some ms -> Printf.sprintf "%.3f" ms)
          (int_opt r.conflicts) (int_opt r.propagations) (int_opt r.omt_rounds)
          (int_opt r.row_jobs) (int_opt r.cores)
          (if i = List.length all - 1 then "" else ","))
      all;
    output_string oc "}\n";
    close_out oc;
    Format.fprintf fmt "json rows written to %s@." file

let () =
  (* total wall time from the monotone clock, so the harness's own
     runtime is recorded with the same time source as every row *)
  let t_start = Clock.now () in
  run_experiments ();
  run_benchmarks ();
  Format.fprintf fmt "total wall time: %.1f s (monotonic clock)@."
    (Clock.ms_between t_start (Clock.now ()) /. 1000.0)
