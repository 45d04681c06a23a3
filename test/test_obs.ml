(* Observability layer: metrics registry bucketing/summaries, span
   nesting discipline, and the Chrome trace_event export — including an
   end-to-end governed adaptation whose trace must contain one complete
   span per pipeline phase. *)

module Obs = Qca_obs.Metrics
module Trace = Qca_obs.Trace
module Ring = Qca_obs.Ring
module Tracectx = Qca_obs.Tracectx
module Circuit = Qca_circuit.Circuit
module Gate = Qca_circuit.Gate
module Parse = Qca_circuit.Parse
module Solver = Qca_sat.Solver
module Hardware = Qca_adapt.Hardware
module Pipeline = Qca_adapt.Pipeline
module Model = Qca_adapt.Model

(* Metrics and trace state is global; every test runs against a clean,
   enabled registry and leaves both subsystems disabled and empty. *)
let with_obs f () =
  Obs.reset ();
  Trace.reset ();
  Obs.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Trace.set_enabled false;
      Obs.reset ();
      Trace.reset ())
    f

let with_trace f () =
  with_obs
    (fun () ->
      Trace.set_enabled true;
      f ())
    ()

(* {1 Histogram bucketing} *)

let test_bucket_edges () =
  Alcotest.(check int) "zero" 0 (Obs.bucket_of 0.0);
  Alcotest.(check int) "below one" 0 (Obs.bucket_of 0.99);
  Alcotest.(check int) "negative" 0 (Obs.bucket_of (-4.0));
  Alcotest.(check int) "nan" 0 (Obs.bucket_of Float.nan);
  Alcotest.(check int) "one" 1 (Obs.bucket_of 1.0);
  Alcotest.(check int) "1.5" 1 (Obs.bucket_of 1.5);
  Alcotest.(check int) "two" 2 (Obs.bucket_of 2.0);
  Alcotest.(check int) "three" 2 (Obs.bucket_of 3.0);
  Alcotest.(check int) "2^29" 30 (Obs.bucket_of (ldexp 1.0 29));
  Alcotest.(check int) "just below overflow" 30
    (Obs.bucket_of (ldexp 1.0 30 -. 1.0));
  Alcotest.(check int) "2^30 overflows" (Obs.num_buckets - 1)
    (Obs.bucket_of (ldexp 1.0 30));
  Alcotest.(check int) "1e12 overflows" (Obs.num_buckets - 1)
    (Obs.bucket_of 1e12);
  Alcotest.(check int) "infinity overflows" (Obs.num_buckets - 1)
    (Obs.bucket_of infinity);
  (* every bucket's bounds round-trip through bucket_of *)
  for i = 0 to Obs.num_buckets - 1 do
    let lo, hi = Obs.bucket_bounds i in
    Alcotest.(check int)
      (Printf.sprintf "lo of bucket %d" i)
      i (Obs.bucket_of lo);
    if hi <> infinity then
      Alcotest.(check int)
        (Printf.sprintf "hi of bucket %d is next" i)
        (min (i + 1) (Obs.num_buckets - 1))
        (Obs.bucket_of hi)
  done

let test_observe_clamps () =
  let h = Obs.histogram "test.clamp" in
  Obs.observe h 0.0;
  Obs.observe h (-17.0);
  Obs.observe h Float.nan;
  let counts = Obs.bucket_counts h in
  Alcotest.(check int) "all in bucket 0" 3 counts.(0);
  let s = Obs.summarize h in
  Alcotest.(check int) "count" 3 s.Obs.h_count;
  Alcotest.(check (float 0.0)) "sum clamped to zero" 0.0 s.Obs.h_sum;
  Alcotest.(check (float 0.0)) "max" 0.0 s.Obs.h_max

let test_overflow_bucket () =
  let h = Obs.histogram "test.overflow" in
  Obs.observe h 1e12;
  Obs.observe h 3.0;
  let counts = Obs.bucket_counts h in
  Alcotest.(check int) "overflow count" 1 counts.(Obs.num_buckets - 1);
  let s = Obs.summarize h in
  (* the overflow bucket has no finite upper bound: quantiles that land
     there report the observed maximum instead *)
  Alcotest.(check (float 0.0)) "p95 is the recorded max" 1e12 s.Obs.h_p95;
  Alcotest.(check (float 0.0)) "p50 is a finite bucket bound" 4.0 s.Obs.h_p50

let test_intern () =
  let a = Obs.counter "test.intern" in
  let b = Obs.counter "test.intern" in
  Alcotest.(check bool) "same id" true (a = b);
  Obs.incr a;
  Obs.incr b;
  Alcotest.(check int) "shared cell" 2 (Obs.value a);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics.gauge: \"test.intern\" is already a counter")
    (fun () -> ignore (Obs.gauge "test.intern"))

let test_disabled_noop () =
  let c = Obs.counter "test.disabled" in
  let h = Obs.histogram "test.disabled.h" in
  Obs.set_enabled false;
  Obs.incr c;
  Obs.add c 10;
  Obs.observe h 5.0;
  Obs.set_enabled true;
  Alcotest.(check int) "counter untouched" 0 (Obs.value c);
  Alcotest.(check int) "histogram untouched" 0 (Obs.summarize h).Obs.h_count

let test_reset_keeps_ids () =
  let c = Obs.counter "test.reset" in
  Obs.incr c;
  Obs.reset ();
  Alcotest.(check int) "zeroed" 0 (Obs.value c);
  Obs.incr c;
  Alcotest.(check int) "id still valid" 1 (Obs.value c)

let test_quantile_interpolation () =
  let h = Obs.histogram "test.quantiles" in
  (* five samples in [1,2), five in [8,16): the bucket census knows
     exactly where every rank falls *)
  for _ = 1 to 5 do
    Obs.observe h 1.0
  done;
  for _ = 1 to 5 do
    Obs.observe h 8.0
  done;
  let s = Obs.summarize h in
  (* p50 = rank 5 = the last sample of bucket [1,2): interpolates to
     the bucket's upper bound *)
  Alcotest.(check (float 1e-9)) "p50" 2.0 s.Obs.h_p50;
  (* p90/p99 land in [8,16) but the recorded max (8.0) clamps them:
     a quantile must never exceed an observed value *)
  Alcotest.(check (float 1e-9)) "p90 clamped to max" 8.0 s.Obs.h_p90;
  Alcotest.(check (float 1e-9)) "p99 clamped to max" 8.0 s.Obs.h_p99;
  Alcotest.(check bool) "monotone" true
    (s.Obs.h_p50 <= s.Obs.h_p90 && s.Obs.h_p90 <= s.Obs.h_p99
    && s.Obs.h_p99 <= s.Obs.h_max);
  (* the new quantiles surface in both renderings *)
  let contains needle hay =
    let ln = String.length needle and l = String.length hay in
    let rec at i = i + ln <= l && (String.sub hay i ln = needle || at (i + 1)) in
    at 0
  in
  let json = Obs.json_object () in
  Alcotest.(check bool) "json p90" true (contains "\"p90\"" json);
  Alcotest.(check bool) "json p99" true (contains "\"p99\"" json);
  let text = Format.asprintf "%a" Obs.pp_summary () in
  Alcotest.(check bool) "summary p90" true (contains "p90=" text);
  Alcotest.(check bool) "summary p99" true (contains "p99=" text)

(* {1 Flight recorder} *)

let with_ring f () =
  Ring.reset ();
  Ring.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Ring.set_enabled false;
      Ring.reset ())
    f

let test_ring_basics () =
  let k1 = Ring.kind "test.alpha" in
  let k2 = Ring.kind "test.beta" in
  Alcotest.(check int) "kind interning is idempotent" k1
    (Ring.kind "test.alpha");
  Alcotest.(check string) "kind names round-trip" "test.beta"
    (Ring.kind_name k2);
  Ring.record k1 1 2 3;
  Ring.record k2 4 5 6;
  (match Ring.events () with
  | [ a; b ] ->
    Alcotest.(check string) "first kind" "test.alpha" a.Ring.e_kind;
    Alcotest.(check int) "payload a" 1 a.Ring.e_a;
    Alcotest.(check int) "payload c" 6 b.Ring.e_c;
    Alcotest.(check bool) "timestamps monotone" true
      (a.Ring.e_ts_us <= b.Ring.e_ts_us);
    Alcotest.(check int) "no trace context" 0 a.Ring.e_trace
  | es -> Alcotest.fail (Printf.sprintf "expected 2 events, got %d" (List.length es)));
  Alcotest.(check int) "total recorded" 2 (Ring.total_recorded ())

let test_ring_disabled_records_nothing () =
  let k = Ring.kind "test.off" in
  Ring.set_enabled false;
  Ring.record k 1 2 3;
  Ring.set_enabled true;
  Alcotest.(check int) "nothing recorded while off" 0 (Ring.total_recorded ())

let test_ring_trace_filter () =
  let k = Ring.kind "test.traced" in
  let ctx = Tracectx.generate () in
  Tracectx.with_ctx ctx (fun () -> Ring.record k 7 0 0);
  Ring.record k 8 0 0;
  let w = Tracectx.word ctx in
  Alcotest.(check bool) "correlation word is nonzero" true (w <> 0);
  (match Ring.events ~trace:w () with
  | [ e ] ->
    Alcotest.(check int) "only the in-context event" 7 e.Ring.e_a;
    Alcotest.(check int) "carries the word" w e.Ring.e_trace
  | es -> Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length es)));
  Alcotest.(check int) "both retained overall" 2
    (List.length (Ring.events ()))

let test_ring_multidomain_hammer () =
  (* 4 domains x 10_000 records against default-capacity rings: every
     retained event must be whole (payload is a function of its seed),
     capacity must bound retention, and nothing may be lost from the
     total *)
  let cap = Ring.default_capacity and domains = 4 and per_domain = 10_000 in
  let k = Ring.kind "test.hammer" in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              let seed = (d * per_domain) + i in
              Ring.record k seed (seed * 2) (seed * 3)
            done))
  in
  List.iter Domain.join workers;
  let es = List.filter (fun e -> e.Ring.e_kind = "test.hammer") (Ring.events ()) in
  Alcotest.(check int) "retention is exactly cap per domain"
    (domains * cap) (List.length es);
  List.iter
    (fun e ->
      Alcotest.(check bool) "no torn payloads" true
        (e.Ring.e_b = e.Ring.e_a * 2 && e.Ring.e_c = e.Ring.e_a * 3))
    es;
  Alcotest.(check bool) "overwritten events still counted" true
    (Ring.total_recorded () >= domains * per_domain);
  (* merged view is globally sorted *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Ring.e_ts_us <= b.Ring.e_ts_us && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "merged chronologically" true (sorted (Ring.events ()))

(* {1 Trace contexts} *)

let valid_tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

let test_traceparent_parse () =
  (match Tracectx.parse_traceparent valid_tp with
  | Ok c ->
    Alcotest.(check string) "trace id" "4bf92f3577b34da6a3ce929d0e0e4736"
      c.Tracectx.trace_id;
    Alcotest.(check string) "parent id" "00f067aa0ba902b7" c.Tracectx.parent_id;
    Alcotest.(check bool) "sampled" true c.Tracectx.sampled;
    Alcotest.(check string) "reserializes" valid_tp (Tracectx.to_traceparent c)
  | Error e -> Alcotest.fail ("valid traceparent rejected: " ^ e));
  let rejected s =
    match Tracectx.parse_traceparent s with
    | Ok _ -> Alcotest.fail ("accepted: " ^ String.escaped s)
    | Error _ -> ()
  in
  rejected "";
  rejected "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0";
  rejected (valid_tp ^ "0");
  rejected "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
  rejected "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
  rejected "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01";
  rejected "00-00000000000000000000000000000000-00f067aa0ba902b7-01";
  rejected "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01";
  rejected "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
  rejected "00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01"

let test_traceparent_fuzz () =
  (* mutating any byte of a valid traceparent must never raise; the
     parse either still succeeds (a hex digit swapped for another) or
     returns a typed error *)
  let chars = "0123456789abcdefABCDEF-_ \x00\xffzZ." in
  for i = 0 to String.length valid_tp - 1 do
    String.iter
      (fun c ->
        let b = Bytes.of_string valid_tp in
        Bytes.set b i c;
        match Tracectx.parse_traceparent (Bytes.to_string b) with
        | Ok _ | Error _ -> ())
      chars
  done;
  (* truncations and extensions at every length *)
  for len = 0 to String.length valid_tp - 1 do
    match Tracectx.parse_traceparent (String.sub valid_tp 0 len) with
    | Ok _ -> Alcotest.fail (Printf.sprintf "accepted prefix of length %d" len)
    | Error _ -> ()
  done

let test_tracectx_generate_child () =
  let c = Tracectx.generate () in
  (match Tracectx.parse_traceparent (Tracectx.to_traceparent c) with
  | Ok c' ->
    Alcotest.(check string) "generated context reparses" c.Tracectx.trace_id
      c'.Tracectx.trace_id
  | Error e -> Alcotest.fail ("generated context invalid: " ^ e));
  let k = Tracectx.child c in
  Alcotest.(check string) "child keeps the trace" c.Tracectx.trace_id
    k.Tracectx.trace_id;
  Alcotest.(check bool) "child gets a fresh span id" true
    (k.Tracectx.parent_id <> c.Tracectx.parent_id);
  let c2 = Tracectx.generate () in
  Alcotest.(check bool) "trace ids are distinct" true
    (c.Tracectx.trace_id <> c2.Tracectx.trace_id);
  Alcotest.(check bool) "word is never zero" true
    (Tracectx.word c <> 0 && Tracectx.word c2 <> 0)

(* {1 Spans} *)

let test_span_nesting () =
  Trace.span "outer" (fun () ->
      Trace.span "inner" (fun () -> ());
      Trace.span "inner2" (fun () -> ()));
  Trace.span "after" (fun () -> ());
  let spans = Trace.spans () in
  Alcotest.(check (list string))
    "names in start order"
    [ "outer"; "inner"; "inner2"; "after" ]
    (List.map (fun s -> s.Trace.s_name) spans);
  Alcotest.(check (list int))
    "depths" [ 0; 1; 1; 0 ]
    (List.map (fun s -> s.Trace.s_depth) spans);
  Alcotest.(check int) "nothing left open" 0 (Trace.open_depth ())

let test_span_closes_on_raise () =
  (try Trace.span "raiser" (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check int) "closed by protect" 0 (Trace.open_depth ());
  Alcotest.(check (list string))
    "span still recorded" [ "raiser" ]
    (List.map (fun s -> s.Trace.s_name) (Trace.spans ()))

let test_orphan_close () =
  Alcotest.check_raises "close with empty stack"
    (Invalid_argument "Trace.end_span: no open span (closing \"ghost\")")
    (fun () -> Trace.end_span "ghost");
  Trace.begin_span "a";
  Alcotest.check_raises "close wrong span"
    (Invalid_argument "Trace.end_span: closing \"b\" but \"a\" is open")
    (fun () -> Trace.end_span "b");
  Trace.end_span "a";
  Alcotest.(check int) "balanced again" 0 (Trace.open_depth ())

let test_disabled_trace_records_nothing () =
  Trace.set_enabled false;
  Trace.span "invisible" (fun () ->
      Trace.begin_span "nope";
      Trace.end_span "nope");
  Alcotest.(check int) "no slots claimed" 0 (Ring.total_recorded ());
  Alcotest.(check int) "no spans" 0 (List.length (Trace.spans ()));
  Alcotest.(check int) "nothing open" 0 (Trace.open_depth ())

let test_disarming_tracer_keeps_recorder () =
  let k = Ring.kind "test.recorder" in
  Ring.set_enabled true;
  Fun.protect ~finally:(fun () -> Ring.set_enabled false) @@ fun () ->
  Trace.set_enabled true;
  Trace.set_enabled false;
  Ring.record k 1 2 3;
  Alcotest.(check int) "the flight recorder still records" 1
    (List.length
       (List.filter (fun e -> e.Ring.e_kind = "test.recorder") (Ring.events ())));
  Ring.set_enabled false;
  Ring.record k 4 5 6;
  Alcotest.(check int) "both switches off: nothing more" 1
    (List.length
       (List.filter (fun e -> e.Ring.e_kind = "test.recorder") (Ring.events ())))

(* {1 A minimal JSON reader for validating the Chrome export} *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let bad msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos >= n then bad "unexpected end" else s.[!pos] in
  let advance () = incr pos in
  let rec skip_ws () =
    if
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    then begin
      advance ();
      skip_ws ()
    end
  in
  let expect c =
    skip_ws ();
    if peek () <> c then bad (Printf.sprintf "expected %C" c);
    advance ()
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      let c = peek () in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        let e = peek () in
        advance ();
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 > n then bad "truncated \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          Buffer.add_char buf (Char.chr (code land 0xff))
        | _ -> bad "unknown escape");
        go ()
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else bad "unknown literal"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          let k = parse_string () in
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            skip_ws ();
            members ((k, v) :: acc)
          | '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> bad "expected ',' or '}'"
        in
        skip_ws ();
        members []
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            elems (v :: acc)
          | ']' ->
            advance ();
            Arr (List.rev (v :: acc))
          | _ -> bad "expected ',' or ']'"
        in
        elems []
      end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      do
        advance ()
      done;
      if !pos = start then bad "expected a value";
      Num (float_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then bad "trailing garbage";
  v

let member k = function
  | Obj fields -> (
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> Alcotest.fail ("missing JSON member " ^ k))
  | _ -> Alcotest.fail ("not a JSON object while looking for " ^ k)

let str_member k o =
  match member k o with Str s -> s | _ -> Alcotest.fail (k ^ " not a string")

(* {1 Chrome export of an end-to-end governed adaptation} *)

(* The section-IV worked example: enough structure that the SAT tier
   matches, encodes and solves for real. *)
let example_circuit () =
  Circuit.of_gates 3
    [
      Gate.Single (Gate.Sx, 0);
      Gate.Two (Gate.Cx, 0, 1);
      Gate.Two (Gate.Cx, 1, 0);
      Gate.Two (Gate.Cx, 0, 1);
      Gate.Single (Gate.Rz 0.7, 1);
      Gate.Two (Gate.Cx, 1, 2);
      Gate.Single (Gate.Sx, 2);
      Gate.Two (Gate.Cx, 1, 2);
      Gate.Two (Gate.Cx, 0, 1);
      Gate.Single (Gate.X, 0);
    ]

let pipeline_phases = [ "parse"; "partition"; "match"; "encode"; "solve"; "apply" ]

let test_governed_trace_json () =
  (* same shape as the CLI: a parse span around the reader, then the
     governed pipeline *)
  let text = Parse.to_text (example_circuit ()) in
  let circuit =
    match Trace.span "parse" (fun () -> Parse.parse text) with
    | Ok c -> c
    | Error msg -> Alcotest.fail ("parse: " ^ msg)
  in
  let budget = Solver.budget () in
  let o =
    Pipeline.adapt_governed ~budget Hardware.d0 (Pipeline.Sat Model.Sat_p)
      circuit
  in
  Alcotest.(check string) "full service" "full" (Pipeline.tier_name o.Pipeline.tier);
  let doc = parse_json (Trace.to_chrome_json ()) in
  let events =
    match member "traceEvents" doc with
    | Arr es -> es
    | _ -> Alcotest.fail "traceEvents not an array"
  in
  Alcotest.(check bool) "trace is not empty" true (List.length events > 1);
  (* exactly one complete ("X") span per pipeline phase, with sane
     timestamps *)
  List.iter
    (fun phase ->
      let matching =
        List.filter
          (fun e ->
            match e with
            | Obj _ -> str_member "name" e = phase && str_member "ph" e = "X"
            | _ -> false)
          events
      in
      Alcotest.(check int) ("one complete span: " ^ phase) 1
        (List.length matching);
      let span = List.hd matching in
      (match (member "ts" span, member "dur" span) with
      | Num ts, Num dur ->
        Alcotest.(check bool) (phase ^ " ts >= 0") true (ts >= 0.0);
        Alcotest.(check bool) (phase ^ " dur >= 0") true (dur >= 0.0)
      | _ -> Alcotest.fail (phase ^ ": ts/dur not numbers)")))
    pipeline_phases;
  (* the incumbent trajectory is a counter series of ring events: the
     warm start opens it, each later row is a strict improvement *)
  let incumbents =
    List.filter_map
      (fun e ->
        match e with
        | Obj _
          when str_member "name" e = "omt.incumbent" && str_member "ph" e = "C"
          -> (
          match member "a" (member "args" e) with
          | Num v -> Some v
          | _ -> Alcotest.fail "omt.incumbent value not a number")
        | _ -> None)
      events
  in
  Alcotest.(check bool) "an omt.incumbent row" true (incumbents <> []);
  let rec improving = function
    | a :: (b :: _ as rest) -> b < a && improving rest
    | _ -> true
  in
  Alcotest.(check bool) "the series only improves" true (improving incumbents);
  (* solver telemetry travels inside the export *)
  let metrics = member "metrics" (member "otherData" doc) in
  (match member "sat.conflicts" metrics with
  | Num _ -> ()
  | _ -> Alcotest.fail "sat.conflicts not a number");
  match member "pipeline.adaptations" metrics with
  | Num v -> Alcotest.(check bool) "pipeline.adaptations > 0" true (v > 0.0)
  | _ -> Alcotest.fail "pipeline.adaptations not a number"

let test_chrome_escaping () =
  Trace.span "weird\"name" ~args:[ ("k\\ey", "line\nbreak") ] (fun () ->
      Ring.record (Ring.kind "mark\"er") 1 2 3);
  let doc = parse_json (Trace.to_chrome_json ()) in
  let events =
    match member "traceEvents" doc with
    | Arr es -> es
    | _ -> Alcotest.fail "traceEvents not an array"
  in
  let names = List.filter_map (function Obj _ as e -> Some (str_member "name" e) | _ -> None) events in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("event present: " ^ String.escaped expected) true
        (List.mem expected names))
    [ "weird\"name"; "mark\"er" ]

let test_tracer_keeps_every_span () =
  (* an armed tracer grows the ring instead of wrapping it *)
  let n = Ring.default_capacity + 100 in
  Trace.span "outer" (fun () ->
      for _ = 1 to n do
        Trace.span "leaf" ignore
      done);
  let spans = Trace.spans () in
  Alcotest.(check int) "every span kept" (n + 1) (List.length spans);
  Alcotest.(check string) "start order survives growth" "outer"
    (List.hd spans).Trace.s_name;
  Alcotest.(check bool) "leaves nest under it" true
    (List.for_all (fun s -> s.Trace.s_name = "outer" || s.Trace.s_depth = 1) spans);
  let leaves =
    match member "traceEvents" (parse_json (Trace.to_chrome_json ())) with
    | Arr es ->
      List.filter
        (function
          | Obj _ as e -> str_member "name" e = "leaf" && str_member "ph" e = "X"
          | _ -> false)
        es
    | _ -> Alcotest.fail "traceEvents not an array"
  in
  Alcotest.(check int) "every span exported" n (List.length leaves)

let suite =
  [
    Alcotest.test_case "histogram bucket edges" `Quick (with_obs test_bucket_edges);
    Alcotest.test_case "observe clamps zero/negative/nan" `Quick
      (with_obs test_observe_clamps);
    Alcotest.test_case "overflow bucket quantiles" `Quick
      (with_obs test_overflow_bucket);
    Alcotest.test_case "intern is idempotent, kinds checked" `Quick
      (with_obs test_intern);
    Alcotest.test_case "disabled registry is a no-op" `Quick
      (with_obs test_disabled_noop);
    Alcotest.test_case "reset keeps ids valid" `Quick
      (with_obs test_reset_keeps_ids);
    Alcotest.test_case "quantile interpolation" `Quick
      (with_obs test_quantile_interpolation);
    Alcotest.test_case "ring basics" `Quick (with_ring test_ring_basics);
    Alcotest.test_case "ring disabled records nothing" `Quick
      (with_ring test_ring_disabled_records_nothing);
    Alcotest.test_case "ring trace filter" `Quick
      (with_ring test_ring_trace_filter);
    Alcotest.test_case "ring multi-domain hammer" `Quick
      (with_ring test_ring_multidomain_hammer);
    Alcotest.test_case "traceparent parse" `Quick test_traceparent_parse;
    Alcotest.test_case "traceparent fuzz" `Quick test_traceparent_fuzz;
    Alcotest.test_case "tracectx generate and child" `Quick
      test_tracectx_generate_child;
    Alcotest.test_case "span nesting depths" `Quick (with_trace test_span_nesting);
    Alcotest.test_case "span closes on raise" `Quick
      (with_trace test_span_closes_on_raise);
    Alcotest.test_case "orphan close is an error" `Quick
      (with_trace test_orphan_close);
    Alcotest.test_case "disabled tracer records nothing" `Quick
      (with_obs test_disabled_trace_records_nothing);
    Alcotest.test_case "governed run emits a valid chrome trace" `Quick
      (with_trace test_governed_trace_json);
    Alcotest.test_case "chrome export escapes strings" `Quick
      (with_trace test_chrome_escaping);
    Alcotest.test_case "armed tracer keeps every span" `Quick
      (with_trace test_tracer_keeps_every_span);
    Alcotest.test_case "disarming the tracer keeps the recorder" `Quick
      (with_obs test_disarming_tracer_keeps_recorder);
  ]
