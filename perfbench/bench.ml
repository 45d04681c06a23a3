(* Paper-scale benchmark for the adaptation stack (Brandhofer et al.,
   DATE 2023, Figs. 5/6).

   One process runs one workload and prints two JSON lines on stdout:
   a [{"meta": ...}] line (core count, OCaml version, seed, items per
   pass) and the result line [{"correct", "attempted", "failed",
   "metrics"}]. [run.py] builds this executable and the daemon, runs it
   and checks the result against BENCHMARK.json.

   Workloads (closed loop, one worker at a time; see BENCHMARK.json for
   why each was chosen):
   - grid:  QV and random-template circuits on 2-4 qubits, depth <= 40,
            on D0 and D1, through the seven paper methods plus Greedy P;
   - deep:  random templates at depth 100 on 4 qubits under SAT R/P and
            Greedy P, plus one fixed SAT F circuit, run five times, that
            runs inprocessing;
   - serve: two HTTP connections against [qca-serve daemon --port 0
            --workers 1], mixing cold, template-hit and cache-hit
            requests.

   An item is parse + [Pipeline.adapt_governed] (unlimited budget,
   jobs = 1) + [Lint.certify_adaptation], or one HTTP request. Every
   item passes an output gate: tier Full with no stop reason, and no
   Error issue from the certifier (for serve: status 200, tier full,
   and the returned circuit certified against the request).

   With [--trace 1] the process instead runs one fixed pass untraced
   (allocation and solver counts), then the same pass traced, and
   prints the per-layer split computed from the span tree. *)

open Qca_adapt
module Circuit = Qca_circuit.Circuit
module Parse = Qca_circuit.Parse
module Workloads = Qca_workloads.Workloads
module Trace = Qca_obs.Trace
module Tracectx = Qca_obs.Tracectx
module Json = Qca_obs.Json

let now = Qca_util.Clock.now

(* {1 Arguments} *)

let workload = ref ""
let seed = ref 1
let seconds = ref 20.0
let traced = ref false
let smoke = ref false
let serve_bin = ref "_build/default/bin/qca_serve_cli.exe"
let work_dir = ref ".perfbench"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "grid|deep|serve");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "timed-loop length");
      ("--trace", Arg.Int (fun v -> traced := v <> 0), "0|1: per-layer run");
      ("--smoke", Arg.Set smoke, "a few items per workload");
      ("--serve-bin", Arg.Set_string serve_bin, "qca-serve executable");
      ("--work-dir", Arg.Set_string work_dir, "scratch files (serve trace)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1"

(* {1 Statistics} *)

let median_f xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear interpolation between closest ranks (numpy's default). *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let pct num den = if den > 0.0 then 100.0 *. num /. den else 0.0

(* Words allocated between two [Gc.quick_stat]s. *)
let alloc_mwords (g0 : Gc.stat) (g1 : Gc.stat) =
  let total (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  (total g1 -. total g0) /. 1e6

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ -> exp (mean (List.map log xs))

let vm_hwm_mb pid =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf
            (String.sub line 6 (String.length line - 6))
            " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* {1 Output} *)

type metric = string * float * string

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~attempted ~failed ~items_per_pass (metrics : metric list) =
  Printf.printf
    "{\"meta\": {\"workload\": \"%s\", \"seed\": %d, \"seconds\": %s, \
     \"trace\": %b, \"smoke\": %b, \"nproc\": %d, \"ocaml\": \"%s\", \
     \"items_per_pass\": %d, \"items_per_run\": %d}}\n"
    !workload !seed (json_num !seconds) !traced !smoke
    (Domain.recommended_domain_count ())
    Sys.ocaml_version items_per_pass attempted;
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
             (json_num v) unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && attempted > 0)
    attempted failed body

(* {1 Spans}

   The benchmark's own spans ([bench.item], [bench.parse],
   [bench.adapt], [bench.certify]) wrap its calls into each layer; the
   program's spans nest beneath them. Self time is a span's duration
   minus the time its direct children cover. *)

type span = {
  name : string;
  ts : float;  (** µs *)
  dur : float;  (** µs *)
  tid : int;
  trace : int;  (** the item's trace word *)
  mutable self : float;
}

let self_times spans =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  Hashtbl.iter
    (fun _ ss ->
      let sorted =
        List.sort
          (fun a b ->
            match compare a.ts b.ts with 0 -> compare b.dur a.dur | c -> c)
          ss
      in
      let stack = ref [] in
      List.iter
        (fun s ->
          s.self <- s.dur;
          let rec pop () =
            match !stack with
            | p :: rest when s.ts >= p.ts +. p.dur -> stack := rest; pop ()
            | _ -> ()
          in
          pop ();
          (match !stack with p :: _ -> p.self <- p.self -. s.dur | [] -> ());
          stack := s :: !stack)
        sorted)
    by_tid

let spans_of_trace () =
  List.map
    (fun (r : Trace.span_record) ->
      {
        name = r.Trace.s_name;
        ts = float_of_int r.Trace.s_ts_us;
        dur = float_of_int r.Trace.s_dur_us;
        tid = r.Trace.s_tid;
        trace = r.Trace.s_trace;
        self = 0.0;
      })
    (Trace.spans ())

let sum_ms ?(self = false) spans names =
  List.fold_left
    (fun acc s ->
      if List.mem s.name names then acc +. (if self then s.self else s.dur)
      else acc)
    0.0 spans
  /. 1000.0

(* {1 Per-layer metrics} *)

(* Every per-layer metric with its unit. A traced run reports the layers
   its workload runs; the others read 0. *)
let layer_units =
  [
    ("circuit.parse_ms", "ms/item");
    ("circuit.partition_ms", "ms/item");
    ("rules.match_ms", "ms/item");
    ("model.encode_ms", "ms/item");
    ("model.warm_start_ms", "ms/item");
    ("model.selector_build_ms", "ms/item");
    ("pipeline.greedy_ms", "ms/item");
    ("model.omt_round_ms", "ms/item");
    ("model.omt_rounds", "count");
    ("sat.conflicts", "count");
    ("sat.propagations", "count");
    ("sat.simplify_ms", "ms/item");
    ("sat.subsume_ms", "ms/item");
    ("pipeline.apply_ms", "ms/item");
    ("pipeline.degraded", "count");
    ("rules.substitutions", "count");
    ("rules.chosen_frac", "frac");
    ("lint.certify_ms", "ms/item");
    ("model.rp_warm_selector_pct", "%");
    ("sat.f_subsume_pct", "%");
    ("serve.queue_ms", "ms/item");
    ("serve.handler_ms", "ms/item");
    ("serve.wire_ms", "ms/item");
    ("serve.cache_hit_frac", "frac");
    ("serve.template_hit_frac", "frac");
    ("serve.cold_p50_ms", "ms");
    ("serve.template_hit_p50_ms", "ms");
    ("serve.cache_hit_p50_ms", "ms");
    ("serve.failed", "count");
    ("gc.alloc_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("obs.trace_overhead_pct", "%");
  ]

let print_layers ~attempted ~failed ~items_per_pass values =
  List.iter (fun (name, _) -> assert (List.mem_assoc name layer_units)) values;
  print_result ~attempted ~failed ~items_per_pass
    (List.map
       (fun (name, unit) ->
         (name, Option.value ~default:0.0 (List.assoc_opt name values), unit))
       layer_units)

(* The layers every traced run reads from its span tree, per item;
   [parse] is the span that wraps circuit parsing. *)
let span_layers ~parse spans n =
  let per_item ?self names = sum_ms ?self spans names /. float_of_int n in
  [
    ("circuit.parse_ms", per_item [ parse ]);
    ("circuit.partition_ms", per_item [ "partition" ]);
    ("rules.match_ms", per_item [ "match" ]);
    ("model.encode_ms", per_item [ "encode" ]);
    ("model.warm_start_ms", per_item ~self:true [ "omt.warm_start" ]);
    ("model.selector_build_ms", per_item [ "omt.selector.build" ]);
    ("model.omt_round_ms", per_item ~self:true [ "omt.round"; "omt.cut" ]);
    ("sat.simplify_ms", per_item [ "sat.simplify"; "sat.simplify.light" ]);
    ("sat.subsume_ms", per_item [ "sat.simplify.subsume" ]);
    ("pipeline.apply_ms", per_item [ "apply" ]);
  ]

(* Allocation between two [Gc.quick_stat]s of the untraced pass, and what
   tracing cost the traced one. *)
let pass_layers (g0 : Gc.stat) (g1 : Gc.stat) ~plain_s ~traced_s =
  [
    ("gc.alloc_mwords", alloc_mwords g0 g1);
    ("gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    ("obs.trace_overhead_pct", pct (traced_s -. plain_s) plain_s);
  ]

(* {1 Items} *)

type item = {
  label : string;
  hw : Hardware.t;
  meth : Pipeline.method_;
  text : string;  (** the only thing the program receives *)
  direct : Metrics.summary;  (** Fig. 5/6 baseline *)
}

type result = {
  ok : bool;
  ms : float;
  adapted : Circuit.t option;
  outcome : Pipeline.outcome option;
}

let method_name = Pipeline.method_name

let describe it =
  Printf.sprintf "%s on %s by %s" it.label it.hw.Hardware.name
    (method_name it.meth)

let fail_msg it msg = Printf.eprintf "perfbench: FAIL %s: %s\n%!" (describe it) msg

let direct_summary hw circuit =
  Metrics.summarize hw (Pipeline.adapt hw Pipeline.Direct circuit)

let make_items specs =
  List.concat_map
    (fun (label, circuit, hws, meths) ->
      let text = Parse.to_text circuit in
      List.concat_map
        (fun hw ->
          let direct = direct_summary hw circuit in
          List.map (fun meth -> { label; hw; meth; text; direct }) meths)
        hws)
    specs

let span name f = if Trace.enabled () then Trace.span name f else f ()

let run_item it =
  let t0 = now () in
  let body () =
    match span "bench.parse" (fun () -> Parse.parse it.text) with
    | Error e ->
      fail_msg it ("parse: " ^ e);
      (false, None, None)
    | Ok circuit ->
      let o =
        span "bench.adapt" (fun () ->
            Pipeline.adapt_governed ~jobs:1 it.hw it.meth circuit)
      in
      let errors =
        span "bench.certify" (fun () ->
            Lint.errors
              (Lint.certify_adaptation it.hw ~original:circuit
                 ~adapted:o.Pipeline.circuit
                 ?claimed_makespan:o.Pipeline.claimed_makespan ()))
      in
      let full = o.Pipeline.tier = Pipeline.Full && o.Pipeline.reason = None in
      if not full then
        fail_msg it ("served at tier " ^ Pipeline.tier_name o.Pipeline.tier);
      List.iter
        (fun (i : Lint.issue) -> fail_msg it (i.Lint.rule ^ ": " ^ i.Lint.message))
        errors;
      (full && errors = [], Some o.Pipeline.circuit, Some o)
  in
  let ok, adapted, outcome =
    if Trace.enabled () then
      Tracectx.with_ctx (Tracectx.generate ()) (fun () ->
          Trace.span "bench.item"
            ~args:[ ("item", describe it) ]
            body)
    else body ()
  in
  { ok; ms = (now () -. t0) *. 1000.0; adapted; outcome }

(* Fig. 5: geomean of adapted / direct fidelity. Fig. 6: the decrease in
   total qubit idle time against direct translation, summed over items
   so that small circuits with a few ns of idle time do not swing it. *)
let quality_of pairs =
  let ratios =
    List.map (fun (d, s) -> s.Metrics.fidelity /. d.Metrics.fidelity) pairs
  in
  let idle f = float_of_int (List.fold_left (fun a p -> a + (f p).Metrics.idle_total) 0 pairs) in
  let direct_idle = idle fst in
  ( geomean ratios,
    if direct_idle > 0.0 then 100.0 *. (1.0 -. (idle snd /. direct_idle)) else 0.0 )

let quality items results =
  quality_of
    (List.concat
       (List.map2
          (fun it r ->
            match r.adapted with
            | None -> []
            | Some c -> [ (it.direct, Metrics.summarize it.hw c) ])
          items results))

(* {1 In-process workloads: grid and deep} *)

(* Each generated circuit gets its own generator seed, derived from the
   workload seed and the circuit's slot. *)
let sub_seed k = Hashtbl.hash (!seed, k)
let qv k n layers =
  ( Printf.sprintf "qv n=%d layers=%d" n layers,
    Workloads.quantum_volume ~seed:(sub_seed k) ~num_qubits:n ~layers )

let rt k n depth =
  ( Printf.sprintf "rand n=%d depth=%d" n depth,
    Workloads.random_template ~seed:(sub_seed k) ~num_qubits:n ~depth )

let paper_methods = Pipeline.all_methods @ [ Pipeline.Greedy Model.Sat_p ]

(* Random templates stop at depth 40: at depth 60-80 on 3-4 qubits,
   1-4 of 25 seeded circuits sent one SAT F round past the first
   restart, which runs full inprocessing and turns a ~0.3 s item into a
   ~5 s one. Grid is the workload on which inprocessing does not fire. *)
let grid_specs () =
  let shapes =
    List.concat_map
      (fun n ->
        [ `Qv (n, 2); `Qv (n, 4); `Qv (n, 6);
          `Rt (n, 10); `Rt (n, 20); `Rt (n, 30); `Rt (n, 40) ])
      [ 2; 3; 4 ]
    |> Array.of_list
  in
  let hws = [| Hardware.d0; Hardware.d1 |] in
  let meths = Array.of_list paper_methods in
  let ns = Array.length shapes and nm = Array.length meths in
  (* every (shape, method, hardware) three times, each on its own
     seeded circuit: content varies per item, so a pass averages over
     1008 circuits rather than 21. The p90 lies among the SAT R/P/F
     items that take 30-150 ms, a seventh of the pass, and the more of
     them a pass holds, the less one seed's draw of circuits moves it. *)
  let count = if !smoke then 16 else 3 * ns * nm * Array.length hws in
  List.init count (fun k ->
      let l, c =
        match shapes.(k mod ns) with
        | `Qv (n, layers) -> qv k n layers
        | `Rt (n, depth) -> rt k n depth
      in
      (l, c, [ hws.(k / (ns * nm) mod 2) ], [ meths.(k / ns mod nm) ]))

(* SAT F on deep circuits is bimodal: a circuit whose OMT round reaches
   the first restart (64 conflicts) runs full inprocessing and takes
   3-50 s, one that does not takes ~1 s, and which happens cannot be
   told from the circuit. A seeded SAT F draw would swing the run time
   by 2-40x between seeds, so SAT F runs on one fixed 32-layer 3-qubit
   QV circuit that reaches it, takes about 3 s and spends over 90% of
   that in subsumption. It runs five times a pass, spread over the pass
   by the shuffle: these are the slowest sixth of the items, so the p90
   is an order statistic of five repeats of one fixed item, which the
   host's speed swings move less than the single slowest of a few
   different ones. *)
let deep_f_items () =
  let layers = if !smoke then 3 else 32 in
  List.init 5 (fun i ->
      ( Printf.sprintf "qv n=3 layers=%d (fixed 5, run %d)" layers (i + 1),
        Workloads.quantum_volume ~seed:5 ~num_qubits:3 ~layers,
        [ Hardware.d0 ],
        [ Pipeline.Sat Model.Sat_f ] ))

(* Twenty-four depth-100 circuits, each run by one of SAT R, SAT P and
   Greedy P in turn. Per-circuit cost varies up to 3x with the seeded
   content, so one depth and many circuits, rather than many methods per
   circuit, keep the median steady from seed to seed. *)
let deep_specs () =
  let rpg =
    [| Pipeline.Sat Model.Sat_r; Pipeline.Sat Model.Sat_p;
       Pipeline.Greedy Model.Sat_p |]
  in
  let n, depth = if !smoke then (3, 20) else (24, 100) in
  let seeded =
    List.init n (fun k ->
        let l, c = rt k 4 depth in
        (l, c, [ Hardware.d0 ], [ rpg.(k mod 3) ]))
  in
  seeded @ deep_f_items ()

(* Set-up: generate the inputs and their direct baselines, then run one
   warm-up item (SAT P on a fixed mid-size circuit). Repeated, and the
   median reported, so a one-off stall does not move [setup_s]. *)
let setup specs =
  let t0 = now () in
  let items = make_items (specs ()) in
  let warm =
    make_items
      [
        ( "warm-up",
          Workloads.random_template ~seed:99 ~num_qubits:4
            ~depth:(if !smoke then 10 else 40),
          [ Hardware.d0 ],
          [ Pipeline.Sat Model.Sat_p ] );
      ]
  in
  List.iter (fun it -> ignore (run_item it)) warm;
  (items, now () -. t0)

let setups specs =
  let reps = if !smoke then 1 else 5 in
  let runs = List.init reps (fun _ -> setup specs) in
  (fst (List.hd (List.rev runs)), median_f (List.map snd runs))

let run_pass items = List.map run_item items

(* The item list in a seeded random order, so that any prefix of it is
   a fair sample of the workload. *)
let shuffled items =
  let rng = Random.State.make [| !seed |] in
  let a = Array.of_list items in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Whole passes run in turn, a next one only while it is expected to
   end within the time; there is always at least one. Every statistic
   then weighs each item equally, whatever a partial pass would have
   held, and pools several passes, which span several phases of the
   host's speed and several recurrences of the largest items. The
   quality metrics come from the first pass, so they do not depend on
   how many passes a faster program fits in. *)
let timed_inprocess specs =
  let items, setup_s = setups specs in
  let items = shuffled items in
  let t0 = now () in
  let first = run_pass items in
  let rec more acc passes =
    let elapsed = now () -. t0 in
    if elapsed *. float_of_int (passes + 1) /. float_of_int passes > !seconds
    then List.concat (List.rev acc)
    else more (run_pass items :: acc) (passes + 1)
  in
  let all = first @ more [] 1 in
  let wall = now () -. t0 in
  let rss = vm_hwm_mb None in
  let n = List.length items in
  let attempted = List.length all in
  let failed = List.length (List.filter (fun r -> not r.ok) all) in
  let lat = List.map (fun r -> r.ms) all in
  let fid, idle = quality items first in
  print_result ~attempted ~failed ~items_per_pass:n
    [
      ("setup_s", setup_s, "s");
      ("items_per_s", float_of_int attempted /. wall, "1/s");
      ("latency_p50_ms", percentile 0.5 lat, "ms");
      ("latency_p90_ms", percentile 0.9 lat, "ms");
      ("peak_rss_mb", rss, "MB");
      ("fidelity_ratio", fid, "ratio");
      ("idle_decrease_pct", idle, "%");
      ( "ok_frac",
        float_of_int (attempted - failed) /. float_of_int attempted,
        "frac" );
    ]

let is_sat_rp = function
  | Pipeline.Sat (Model.Sat_r | Model.Sat_p) -> true
  | _ -> false

let traced_inprocess specs =
  let items, _ = setup specs in
  let n = List.length items in
  (* pass A, untraced: counts that must repeat exactly *)
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let plain = run_pass items in
  let plain_s = now () -. t0 in
  let g1 = Gc.quick_stat () in
  let outcomes = List.filter_map (fun r -> r.outcome) plain in
  let isum f = float_of_int (List.fold_left (fun a o -> a + f o) 0 outcomes) in
  (* pass B, traced: the layer split *)
  Trace.reset ();
  Trace.set_enabled true;
  let t1 = now () in
  let traced = run_pass items in
  let traced_s = now () -. t1 in
  Trace.set_enabled false;
  let spans = spans_of_trace () in
  self_times spans;
  (* map each item to its trace word: items run in order, so the k-th
     bench.item span belongs to the k-th item *)
  let item_roots =
    List.filter (fun s -> s.name = "bench.item") spans
    |> List.sort (fun a b -> compare a.ts b.ts)
  in
  let word_meth = Hashtbl.create 64 in
  List.iter2
    (fun it s -> Hashtbl.replace word_meth s.trace (it.meth, s.dur))
    items item_roots;
  let of_items pred =
    List.filter
      (fun s ->
        match Hashtbl.find_opt word_meth s.trace with
        | Some (m, _) -> pred m
        | None -> false)
      spans
  in
  let item_ms pred =
    Hashtbl.fold
      (fun _ (m, d) acc -> if pred m then acc +. (d /. 1000.0) else acc)
      word_meth 0.0
  in
  let rp = of_items is_sat_rp in
  let is_f = function Pipeline.Sat Model.Sat_f -> true | _ -> false in
  let is_greedy = function Pipeline.Greedy _ -> true | _ -> false in
  let considered = isum (fun o -> o.Pipeline.info.Pipeline.substitutions_considered) in
  let chosen = isum (fun o -> o.Pipeline.info.Pipeline.substitutions_chosen) in
  let failed =
    List.length (List.filter (fun r -> not r.ok) (plain @ traced))
  in
  print_layers ~attempted:(2 * n) ~failed ~items_per_pass:n
    (span_layers ~parse:"bench.parse" spans n
    @ pass_layers g0 g1 ~plain_s ~traced_s
    @ [
        ( "pipeline.greedy_ms",
          sum_ms (of_items is_greedy) [ "solve" ] /. float_of_int n );
        ("model.omt_rounds", isum (fun o -> o.Pipeline.info.Pipeline.omt_rounds));
        ("sat.conflicts", isum (fun o -> o.Pipeline.spent.Pipeline.conflicts));
        ("sat.propagations", isum (fun o -> o.Pipeline.spent.Pipeline.propagations));
        ( "pipeline.degraded",
          float_of_int (List.length (List.filter Pipeline.degraded outcomes)) );
        ("rules.substitutions", considered);
        ("rules.chosen_frac", if considered > 0.0 then chosen /. considered else 0.0);
        ("lint.certify_ms", sum_ms spans [ "bench.certify" ] /. float_of_int n);
        ( "model.rp_warm_selector_pct",
          pct
            (sum_ms ~self:true rp [ "omt.warm_start" ]
            +. sum_ms rp [ "omt.selector.build" ])
            (item_ms is_sat_rp) );
        ( "sat.f_subsume_pct",
          pct (sum_ms (of_items is_f) [ "sat.simplify.subsume" ]) (item_ms is_f) );
      ])

(* {1 Serve workload} *)

(* HTTP only: one request per connection ([Connection: close]). *)
let http ~port ?(headers = []) meth target body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\n%sContent-Length: %d\r\n\r\n%s"
          meth target
          (String.concat ""
             (List.map (fun (k, v) -> Printf.sprintf "%s: %s\r\n" k v) headers))
          (String.length body) body
      in
      let b = Bytes.of_string req in
      let rec send off =
        if off < Bytes.length b then
          send (off + Unix.write fd b off (Bytes.length b - off))
      in
      send 0;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec recv () =
        let k = Unix.read fd chunk 0 (Bytes.length chunk) in
        if k > 0 then (Buffer.add_subbytes buf chunk 0 k; recv ())
      in
      recv ();
      let resp = Buffer.contents buf in
      let head, body =
        match Str.search_forward (Str.regexp_string "\r\n\r\n") resp 0 with
        | i -> (String.sub resp 0 i, String.sub resp (i + 4) (String.length resp - i - 4))
        | exception Not_found -> (resp, "")
      in
      match String.split_on_char '\n' head with
      | [] -> (0, [], body)
      | status :: lines ->
        let code =
          try Scanf.sscanf status "HTTP/1.%d %d" (fun _ c -> c) with _ -> 0
        in
        let hdrs =
          List.filter_map
            (fun l ->
              match String.index_opt l ':' with
              | None -> None
              | Some i ->
                Some
                  ( String.lowercase_ascii (String.sub l 0 i),
                    String.trim (String.sub l (i + 1) (String.length l - i - 1)) ))
            lines
        in
        (code, hdrs, body))

type daemon = { pid : int; port : int; log : string }

let daemon_log_line log prefix =
  match open_in log with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | l -> (
        match Str.search_forward (Str.regexp_string prefix) l 0 with
        | i -> Some (String.sub l i (String.length l - i))
        | exception Not_found -> scan ())
    in
    let r = scan () in
    close_in ic;
    r

let spawn_daemon ~trace_file k =
  let log = Filename.concat !work_dir (Printf.sprintf "daemon-%d.log" k) in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let env =
    Array.append
      (Array.of_list
         (List.filter
            (fun kv -> not (String.length kv > 10 && String.sub kv 0 10 = "QCA_TRACE="))
            (Array.to_list (Unix.environment ()))))
      (match trace_file with Some f -> [| "QCA_TRACE=" ^ f |] | None -> [||])
  in
  let pid =
    Unix.create_process_env !serve_bin
      [| !serve_bin; "daemon"; "--port"; "0"; "--workers"; "1" |]
      env Unix.stdin Unix.stdout err
  in
  Unix.close err;
  let deadline = now () +. 60.0 in
  let rec port () =
    if now () > deadline then failwith "qca-serve did not report its port"
    else
      match daemon_log_line log "listening on " with
      | Some l ->
        Scanf.sscanf l "listening on %[^:]:%d" (fun _ p -> p)
      | None -> Unix.sleepf 0.002; port ()
  in
  let port = port () in
  let rec healthy () =
    if now () > deadline then failwith "qca-serve /healthz never answered"
    else
      match http ~port "GET" "/healthz" "" with
      | 200, _, b when String.length b >= 2 && String.sub b 0 2 = "ok" -> ()
      | _ | (exception Unix.Unix_error _) -> Unix.sleepf 0.002; healthy ()
  in
  healthy ();
  { pid; port; log }

(* SIGTERM drain; the daemon must exit 0 after printing "drained". *)
let drain d =
  Unix.kill d.pid Sys.sigterm;
  let _, status = Unix.waitpid [] d.pid in
  match status with
  | Unix.WEXITED 0 when daemon_log_line d.log "drained" <> None -> true
  | _ ->
    Printf.eprintf "perfbench: FAIL qca-serve did not drain cleanly\n%!";
    false

type klass = Cold | Template_hit | Cache_hit

type request = {
  r_conn : int;
  r_group : int;
  r_label : string;
  r_text : string;
  r_hw : Hardware.t;
  r_method : string;
  r_meth : Pipeline.method_;
  r_class : klass;
  r_direct : Metrics.summary Lazy.t;
}

(* A group is one fresh circuit requested cold (SAT P), then as a
   template hit (SAT R: same circuit and hardware, another objective),
   then repeated as a cache hit (SAT P). A circuit is never used again
   after its group, and the two connections never share one, so a
   request's class depends on the seed alone, not on how the
   connections interleave. One request in three per class: with one
   worker each request also waits out the other connection's, and with
   a fourth class the median fell between two clusters of those sums
   and moved by 70% from run to run. The six circuit shapes cycle, on D0
   and then on D1, so every 12 groups hold each (shape, hardware) pair
   once. *)
let group conn g =
  let k = 1000 + (conn * 100000) + g in
  let label, circuit =
    match g mod 6 with
    | 0 -> qv k 3 3
    | 1 -> rt k 3 20
    | 2 -> qv k 4 3
    | 3 -> rt k 4 20
    | 4 -> qv k 2 6
    | _ -> rt k 3 40
  in
  let hw = if g / 6 mod 2 = 0 then Hardware.d0 else Hardware.d1 in
  let text = Parse.to_text circuit in
  let direct = lazy (direct_summary hw circuit) in
  let req m meth cls =
    {
      r_conn = conn;
      r_group = g;
      r_label = Printf.sprintf "%s #%d.%d" label conn g;
      r_text = text;
      r_hw = hw;
      r_method = m;
      r_meth = meth;
      r_class = cls;
      r_direct = direct;
    }
  in
  [
    req "sat-p" (Pipeline.Sat Model.Sat_p) Cold;
    req "sat-r" (Pipeline.Sat Model.Sat_r) Template_hit;
    req "sat-p" (Pipeline.Sat Model.Sat_p) Cache_hit;
  ]

type reply = {
  req : request;
  status : int;
  tier : string;
  cache : string;
  queue_ms : float;
  handler_ms : float;
  client_ms : float;
  body : string;
}

let header hs k = Option.value ~default:"" (List.assoc_opt k hs)
let header_f hs k = Option.value ~default:0.0 (float_of_string_opt (header hs k))

let send_request port r =
  let ctx = Tracectx.generate () in
  let target =
    Printf.sprintf "/adapt?method=%s&hw=%s&timeout-ms=30000" r.r_method
      (String.lowercase_ascii r.r_hw.Hardware.name)
  in
  let sent = now () in
  let status, hs, body =
    try
      http ~port ~headers:[ ("traceparent", Tracectx.to_traceparent ctx) ] "POST"
        target r.r_text
    with Unix.Unix_error (e, _, _) -> (0, [ ("x-qca-error", Unix.error_message e) ], "")
  in
  {
    req = r;
    status;
    tier = header hs "x-qca-tier";
    cache = header hs "x-qca-cache";
    queue_ms = header_f hs "x-qca-queue-ms";
    handler_ms = header_f hs "x-qca-elapsed-ms";
    client_ms = (now () -. sent) *. 1000.0;
    body;
  }

(* Certification runs after the timed loop, once per distinct reply. *)
let certify_reply =
  let memo = Hashtbl.create 256 in
  fun rp ->
    let key = (rp.req.r_text, rp.req.r_hw.Hardware.name, rp.body) in
    match Hashtbl.find_opt memo key with
    | Some v -> v
    | None ->
      let v =
        match (Parse.parse rp.req.r_text, Parse.parse rp.body) with
        | Ok original, Ok adapted ->
          let errs =
            Lint.errors
              (Lint.certify_adaptation rp.req.r_hw ~original ~adapted ())
          in
          List.iter
            (fun (i : Lint.issue) ->
              Printf.eprintf "perfbench: FAIL %s by %s: %s: %s\n%!"
                rp.req.r_label rp.req.r_method i.Lint.rule i.Lint.message)
            errs;
          if errs = [] then Some adapted else None
        | Error e, _ | _, Error e ->
          Printf.eprintf "perfbench: FAIL %s by %s: unparsable: %s\n%!"
            rp.req.r_label rp.req.r_method e;
          None
      in
      Hashtbl.replace memo key v;
      v

(* "revalidated" is a cache hit the daemon re-certified (every 8th). *)
let is_cache_hit rp = rp.cache = "hit" || rp.cache = "revalidated"

let reply_ok rp =
  let served = rp.status = 200 && rp.tier = "full" in
  if not served then
    Printf.eprintf "perfbench: FAIL %s by %s: status %d tier %S\n%!"
      rp.req.r_label rp.req.r_method rp.status rp.tier;
  served && certify_reply rp <> None

(* Each connection keeps three groups open and takes its next request
   from one of them at random (seeded), so what the two connections
   send at any moment mixes freely instead of locking into step; a
   group's own requests stay in order. *)
let schedule conn =
  let rng = Random.State.make [| !seed; conn |] in
  let next = ref 0 in
  let fresh () =
    let g = group conn !next in
    incr next;
    g
  in
  let slots = Array.init 3 (fun _ -> fresh ()) in
  fun () ->
    let i = Random.State.int rng 3 in
    match slots.(i) with
    | r :: rest ->
      slots.(i) <- (if rest = [] then fresh () else rest);
      r
    | [] -> assert false

(* The first requests of both connections, generated in set-up so the
   timed loop only sends; a long run continues from [more]. *)
type source = { first : request list; more : unit -> request }

let source conn ~count =
  let next = schedule conn in
  let first = List.init count (fun _ -> next ()) in
  { first; more = next }

(* The quality metrics use a fixed prefix of each connection's groups,
   which [drive] always completes, so they repeat exactly. Four cycles
   of shape and hardware per connection: with two, [idle_decrease_pct]
   spread over seeds by 0.06-0.08 of its median; with a third fewer
   groups than that and the hardware drawn at random, by 0.10-0.16. *)
let quality_groups = if !smoke then 2 else 48

(* Two closed-loop connections, each on its own domain. A connection
   sends until [stop k] holds after its k-th request and it has sent
   every request of its first [prefix] groups; connection 0 also sends at
   least [rss_after] requests, and after that many [on_rss] samples the
   daemon. *)
let drive ~port ~stop ~prefix ~rss_after ~on_rss sources =
  let conn c =
    let out = ref [] in
    let owed = ref (3 * prefix) in
    let rec loop k pending =
      if !owed > 0 || (c = 0 && k < rss_after) || not (stop k) then begin
        let r, pending =
          match pending with r :: rest -> (r, rest) | [] -> (sources.(c).more (), [])
        in
        out := send_request port r :: !out;
        if r.r_group < prefix then decr owed;
        if c = 0 && k + 1 = rss_after then on_rss ();
        loop (k + 1) pending
      end
    in
    loop 0 sources.(c).first;
    List.rev !out
  in
  let other = Domain.spawn (fun () -> conn 1) in
  let mine = conn 0 in
  mine @ Domain.join other

let serve_quality replies =
  let fixed =
    List.filter (fun rp -> rp.req.r_group < quality_groups) replies
  in
  quality_of
    (List.filter_map
       (fun rp ->
         Option.map
           (fun adapted ->
             (Lazy.force rp.req.r_direct, Metrics.summarize rp.req.r_hw adapted))
           (certify_reply rp))
       fixed)

(* Set-up: generate both connections' first requests (with the direct
   baselines of the groups the quality metrics use), then start the
   daemon and wait for /healthz. *)
let serve_setup ~trace_file ~count k =
  let t0 = now () in
  let sources = Array.init 2 (fun c -> source c ~count) in
  Array.iter
    (fun src ->
      List.iter
        (fun r -> if r.r_group < quality_groups then ignore (Lazy.force r.r_direct))
        src.first)
    sources;
  let d = spawn_daemon ~trace_file k in
  (d, sources, now () -. t0)

let with_daemons f =
  let live = ref [] in
  let spawn ~trace_file ~count k =
    let d, sources, s = serve_setup ~trace_file ~count k in
    live := d :: !live;
    (d, sources, s)
  in
  let drain_ d =
    live := List.filter (fun x -> x.pid <> d.pid) !live;
    drain d
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
        !live)
    (fun () -> f spawn drain_)

let timed_serve () =
  with_daemons @@ fun spawn drain ->
  (* set-up repeated; the last daemon serves the run *)
  let reps = if !smoke then 1 else 5 in
  let count = if !smoke then 8 else 320 in
  let setups = ref [] in
  let last = ref None in
  for k = 1 to reps do
    let dm, sources, s = spawn ~trace_file:None ~count k in
    setups := s :: !setups;
    if k < reps then ignore (drain dm) else last := Some (dm, sources)
  done;
  let d, sources = Option.get !last in
  let t0 = now () in
  let stop k = (!smoke && k >= count) || now () -. t0 >= !seconds in
  (* daemon VmHWM after a fixed number of requests, so a faster daemon
     that serves more in the run is not charged for it *)
  let rss_after = if !smoke then count else 60 in
  let rss = ref nan in
  let replies =
    drive ~port:d.port ~stop ~prefix:quality_groups ~rss_after
      ~on_rss:(fun () -> rss := vm_hwm_mb (Some d.pid))
      sources
  in
  let wall = now () -. t0 in
  let drained = drain d in
  let attempted = List.length replies in
  let failed =
    List.length (List.filter (fun rp -> not (reply_ok rp)) replies)
    + if drained then 0 else 1
  in
  let lat = List.map (fun rp -> rp.client_ms) replies in
  let fid, idle = serve_quality replies in
  print_result ~attempted ~failed ~items_per_pass:(2 * count)
    [
      ("setup_s", median_f !setups, "s");
      ("items_per_s", float_of_int attempted /. wall, "1/s");
      ("latency_p50_ms", percentile 0.5 lat, "ms");
      ("latency_p90_ms", percentile 0.9 lat, "ms");
      ("peak_rss_mb", !rss, "MB");
      ("fidelity_ratio", fid, "ratio");
      ("idle_decrease_pct", idle, "%");
      ( "ok_frac",
        float_of_int (attempted - failed) /. float_of_int attempted,
        "frac" );
    ]

let traced_serve () =
  with_daemons @@ fun spawn drain ->
  let count = if !smoke then 8 else 48 in
  let trace_file = Filename.concat !work_dir "serve-trace.json" in
  (try Sys.remove trace_file with Sys_error _ -> ());
  let pass ~trace_file k =
    let d, sources, _ = spawn ~trace_file ~count k in
    Gc.full_major ();
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let replies =
      drive ~port:d.port ~stop:(fun k -> k >= count) ~prefix:0 ~rss_after:0
        ~on_rss:ignore sources
    in
    let wall = now () -. t0 in
    let g1 = Gc.quick_stat () in
    let drained = drain d in
    (replies, wall, drained, g0, g1)
  in
  let plain, plain_s, drained_a, g0, g1 = pass ~trace_file:None 1 in
  let traced, traced_s, drained_b, _, _ =
    pass ~trace_file:(Some trace_file) 2
  in
  let doc =
    let ic = open_in_bin trace_file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Json.parse s with Ok j -> j | Error e -> failwith ("trace: " ^ e)
  in
  let spans =
    List.filter_map
      (fun e ->
        match (Json.str_member "ph" e, Json.str_member "name" e) with
        | Some "X", Some name ->
          let num k = Option.value ~default:0.0 (Json.num_member k e) in
          Some
            {
              name;
              ts = num "ts";
              dur = num "dur";
              tid = int_of_float (num "tid");
              trace = 0;
              self = 0.0;
            }
        | _ -> None)
      (Option.value ~default:[] (Json.arr_member "traceEvents" doc))
  in
  self_times spans;
  let counter k =
    match Json.member "otherData" doc with
    | Some o -> (
      match Json.member "metrics" o with
      | Some m -> Option.value ~default:0.0 (Json.num_member k m)
      | None -> 0.0)
    | None -> 0.0
  in
  let n = List.length traced in
  let oks = List.map (fun rp -> reply_ok rp) (plain @ traced) in
  let failed =
    List.length (List.filter not oks)
    + (if drained_a then 0 else 1)
    + if drained_b then 0 else 1
  in
  let rps = plain in
  let p50_of cls =
    percentile 0.5
      (List.filter_map
         (fun rp -> if rp.req.r_class = cls then Some rp.client_ms else None)
         rps)
  in
  let certify_ms =
    let t0 = now () in
    List.iter
      (fun rp ->
        match (Parse.parse rp.req.r_text, Parse.parse rp.body) with
        | Ok original, Ok adapted ->
          ignore (Lint.certify_adaptation rp.req.r_hw ~original ~adapted ())
        | _ -> ())
      traced;
    (now () -. t0) *. 1000.0
  in
  let th = counter "serve.template.hits" and tm = counter "serve.template.misses" in
  let mean_of f = mean (List.map f rps) in
  print_layers ~attempted:(List.length oks) ~failed ~items_per_pass:n
    (span_layers ~parse:"serve.parse" spans n
    @ pass_layers g0 g1 ~plain_s ~traced_s
    @ [
        ("model.omt_rounds", counter "omt.rounds");
        ("sat.conflicts", counter "sat.conflicts");
        ("sat.propagations", counter "sat.propagations");
        ("pipeline.degraded", counter "pipeline.degraded");
        ("lint.certify_ms", certify_ms /. float_of_int n);
        ("serve.queue_ms", mean_of (fun rp -> rp.queue_ms));
        ("serve.handler_ms", mean_of (fun rp -> rp.handler_ms));
        ("serve.wire_ms", mean_of (fun rp -> rp.client_ms -. rp.queue_ms -. rp.handler_ms));
        ( "serve.cache_hit_frac",
          float_of_int (List.length (List.filter is_cache_hit rps))
          /. float_of_int (List.length rps) );
        ("serve.template_hit_frac", if th +. tm > 0.0 then th /. (th +. tm) else 0.0);
        ("serve.cold_p50_ms", p50_of Cold);
        ("serve.template_hit_p50_ms", p50_of Template_hit);
        ("serve.cache_hit_p50_ms", p50_of Cache_hit);
        ("serve.failed", float_of_int failed);
      ])

let () =
  (try Unix.mkdir !work_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  match (!workload, !traced) with
  | "grid", false -> timed_inprocess grid_specs
  | "grid", true -> traced_inprocess grid_specs
  | "deep", false -> timed_inprocess deep_specs
  | "deep", true -> traced_inprocess deep_specs
  | "serve", false -> timed_serve ()
  | "serve", true -> traced_serve ()
  | w, _ ->
    Printf.eprintf "perfbench: unknown workload %S (grid|deep|serve)\n" w;
    exit 2
