(* qca-obs: offline reader for the observability artifacts the rest of
   the suite writes — forensic dumps (Forensics, schema qca.dump.v1)
   and Chrome traces (Qca_obs.Trace).

   `report` renders a dump or trace for a human; `phases` aggregates
   per-phase latency across files; `slow` ranks the slowest requests;
   `flame` emits folded stacks (one `a;b;c <self µs>` line per stack)
   for any flamegraph renderer.

   Exit codes: 0 ok, 3 unreadable/unrecognized input. *)

open Cmdliner
module J = Qca_obs.Json

(* {1 Loading} *)

type span = {
  sp_name : string;
  sp_ts_us : float;
  sp_dur_us : float;
  sp_tid : int;
  sp_trace : string;  (** correlation word as decimal text; "" = none *)
}

type ring_ev = {
  rv_ts_us : float;
  rv_kind : string;
  rv_trace : int;
  rv_a : float;
  rv_b : float;
  rv_c : float;
  rv_dom : int;
}

type dump = {
  d_file : string;
  d_reason : string;
  d_trace : string option;
  d_request : (string * string) list;
  d_delta : (string * float) list;
  d_ring : ring_ev list;
  d_spans : span list;
}

type chrome = { c_file : string; c_spans : span list }
type doc = Dump of dump | Chrome of chrome

let num_or ~default j name =
  match J.num_member name j with Some v -> v | None -> default

let dump_span j =
  match (J.str_member "name" j, J.num_member "ts_us" j) with
  | Some sp_name, Some sp_ts_us ->
    let trace = num_or ~default:0.0 j "trace" in
    Some
      {
        sp_name;
        sp_ts_us;
        sp_dur_us = num_or ~default:0.0 j "dur_us";
        sp_tid = int_of_float (num_or ~default:0.0 j "tid");
        sp_trace = (if trace = 0.0 then "" else Printf.sprintf "%.0f" trace);
      }
  | _ -> None

let chrome_span j =
  (* complete events only; metadata, instants and counters carry no
     duration *)
  match (J.str_member "ph" j, J.str_member "name" j, J.num_member "ts" j) with
  | Some "X", Some sp_name, Some sp_ts_us ->
    let trace =
      match J.member "args" j with
      | Some args -> Option.value ~default:"" (J.str_member "trace" args)
      | None -> ""
    in
    Some
      {
        sp_name;
        sp_ts_us;
        sp_dur_us = num_or ~default:0.0 j "dur";
        sp_tid = int_of_float (num_or ~default:0.0 j "tid");
        sp_trace = trace;
      }
  | _ -> None

let ring_ev j =
  match (J.str_member "kind" j, J.num_member "ts_us" j) with
  | Some rv_kind, Some rv_ts_us ->
    Some
      {
        rv_ts_us;
        rv_kind;
        rv_trace = int_of_float (num_or ~default:0.0 j "trace");
        rv_a = num_or ~default:0.0 j "a";
        rv_b = num_or ~default:0.0 j "b";
        rv_c = num_or ~default:0.0 j "c";
        rv_dom = int_of_float (num_or ~default:0.0 j "dom");
      }
  | _ -> None

let string_pairs = function
  | Some (J.Obj kvs) ->
    List.filter_map
      (fun (k, v) -> match J.str v with Some s -> Some (k, s) | None -> None)
      kvs
  | _ -> []

let num_pairs = function
  | Some (J.Obj kvs) ->
    List.filter_map
      (fun (k, v) -> match J.num v with Some n -> Some (k, n) | None -> None)
      kvs
  | _ -> []

let classify file j =
  match J.str_member "schema" j with
  | Some "qca.dump.v1" ->
    Ok
      (Dump
         {
           d_file = file;
           d_reason =
             Option.value ~default:"?" (J.str_member "reason" j);
           d_trace = J.str_member "trace_id" j;
           d_request = string_pairs (J.member "request" j);
           d_delta = num_pairs (J.member "metrics_delta" j);
           d_ring =
             List.filter_map ring_ev
               (Option.value ~default:[] (J.arr_member "ring" j));
           d_spans =
             List.filter_map dump_span
               (Option.value ~default:[] (J.arr_member "spans" j));
         })
  | Some other -> Error (Printf.sprintf "unknown dump schema %S" other)
  | None -> (
    match J.arr_member "traceEvents" j with
    | Some events ->
      Ok (Chrome { c_file = file; c_spans = List.filter_map chrome_span events })
    | None -> Error "neither a qca dump nor a Chrome trace")

let load file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
    match J.parse text with
    | Error msg -> Error (Printf.sprintf "parse: %s" msg)
    | Ok j -> classify file j)

let load_all files =
  let docs, errors =
    List.fold_left
      (fun (docs, errors) file ->
        match load file with
        | Ok d -> (d :: docs, errors)
        | Error msg -> (docs, (file, msg) :: errors))
      ([], []) files
  in
  List.iter
    (fun (file, msg) -> Printf.eprintf "qca-obs: %s: %s\n" file msg)
    (List.rev errors);
  (List.rev docs, errors = [])

let doc_spans = function Dump d -> d.d_spans | Chrome c -> c.c_spans
let doc_file = function Dump d -> d.d_file | Chrome c -> c.c_file

(* A dump's span tree copies spans that the Chrome trace of the same
   daemon also holds, on the same clock, so a copy has the same trace
   word, domain, name and start. The trace word is compared as a float:
   a dump stores it as a JSON number, which rounds words above 2^53. *)
let span_key s =
  (Option.value ~default:0.0 (float_of_string_opt s.sp_trace), s.sp_tid, s.sp_name, s.sp_ts_us)

(* Each of [docs] with its spans, less the copies an earlier file
   already gave. One file can hold distinct spans with one key (two
   sub-µs spans in a row start on the same µs), so a key is kept as
   often as the one file holding it most. *)
let spans_once docs =
  let kept = Hashtbl.create 256 in
  let count tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  List.map
    (fun d ->
      let here = Hashtbl.create 256 in
      let spans =
        List.filter
          (fun s ->
            let k = span_key s in
            let i = count here k in
            Hashtbl.replace here k (i + 1);
            i >= count kept k)
          (doc_spans d)
      in
      Hashtbl.iter (fun k n -> if n > count kept k then Hashtbl.replace kept k n) here;
      (d, spans))
    docs

let unique_spans docs = List.concat_map snd (spans_once docs)

(* {1 phases: per-phase latency breakdown} *)

type phase_acc = {
  mutable p_n : int;
  mutable p_sum : float;
  mutable p_max : float;
}

let phase_table spans =
  let tbl : (string, phase_acc) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let acc =
        match Hashtbl.find_opt tbl s.sp_name with
        | Some acc -> acc
        | None ->
          let acc = { p_n = 0; p_sum = 0.0; p_max = 0.0 } in
          Hashtbl.add tbl s.sp_name acc;
          acc
      in
      acc.p_n <- acc.p_n + 1;
      acc.p_sum <- acc.p_sum +. s.sp_dur_us;
      acc.p_max <- Float.max acc.p_max s.sp_dur_us)
    spans;
  Hashtbl.fold (fun name acc rows -> (name, acc) :: rows) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b.p_sum a.p_sum)

let print_phases spans =
  match phase_table spans with
  | [] -> print_endline "no spans (trace off, or nothing recorded)"
  | rows ->
    Printf.printf "%-32s %6s %12s %10s %10s\n" "phase" "n" "total ms"
      "mean ms" "max ms";
    List.iter
      (fun (name, a) ->
        Printf.printf "%-32s %6d %12.3f %10.3f %10.3f\n" name a.p_n
          (a.p_sum /. 1000.0)
          (a.p_sum /. float_of_int a.p_n /. 1000.0)
          (a.p_max /. 1000.0))
      rows

let phases files =
  let docs, ok = load_all files in
  print_phases (unique_spans docs);
  if ok && docs <> [] then 0 else 3

(* {1 slow: top-N slowest requests} *)

(* Where a dumped request ran: its trace word (as a span's [sp_trace]
   spells it), its worker domain, and the µs window from its start to
   start + elapsed. A domain runs one request at a time, so a span
   with that word and domain starting in that window is this request's
   own, even when a client reuses one traceparent. *)
let dump_window dd ms =
  let field k = List.assoc_opt k dd.d_request in
  match
    ( dd.d_trace,
      Option.bind (field "domain") int_of_string_opt,
      Option.bind (field "start_us") float_of_string_opt )
  with
  | Some trace_id, Some dom, Some start when String.length trace_id = 32 ->
    let word =
      Qca_obs.Tracectx.word { trace_id; parent_id = ""; sampled = false }
    in
    Some (string_of_int word, dom, start, start +. (ms *. 1000.0))
  | _ -> None

(* A request is a dump (one anomalous request each, elapsed_ms in the
   request block) or a `serve.request` span in a trace, listed once
   however many traces and dumps hold it. *)
let requests docs =
  let traces = List.filter (function Chrome _ -> true | Dump _ -> false) docs in
  let dumped =
    List.filter_map
      (function
        | Dump dd ->
          Option.map
            (fun ms -> (dd, ms))
            (Option.bind (List.assoc_opt "elapsed_ms" dd.d_request)
               float_of_string_opt)
        | Chrome _ -> None)
      docs
  in
  let windows = List.filter_map (fun (dd, ms) -> dump_window dd ms) dumped in
  let dumped_span s =
    List.exists
      (fun (word, dom, lo, hi) ->
        s.sp_trace = word && s.sp_tid = dom && lo <= s.sp_ts_us && s.sp_ts_us <= hi)
      windows
  in
  List.map
    (fun (dd, ms) ->
      ( ms,
        Printf.sprintf "dump:%s" dd.d_reason,
        Option.value ~default:"-" dd.d_trace,
        dd.d_file ))
    dumped
  @ List.concat_map
      (fun (d, spans) ->
        List.filter_map
          (fun s ->
            if s.sp_name = "serve.request" && not (dumped_span s) then
              Some
                ( s.sp_dur_us /. 1000.0,
                  s.sp_name,
                  (if s.sp_trace = "" then "-" else s.sp_trace),
                  doc_file d )
            else None)
          spans)
      (spans_once traces)

let slow n files =
  let docs, ok = load_all files in
  let reqs =
    requests docs |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare b a)
  in
  (match reqs with
  | [] -> print_endline "no requests found (no dumps, no serve.request spans)"
  | _ ->
    Printf.printf "%-12s %-16s %-18s %s\n" "elapsed ms" "kind" "trace" "file";
    List.iteri
      (fun i (ms, kind, trace, file) ->
        if i < n then
          Printf.printf "%12.3f %-16s %-18s %s\n" ms kind trace file)
      reqs);
  if ok && docs <> [] then 0 else 3

(* {1 flame: folded stacks}

   Spans carry no parent pointers, so nesting is recovered from
   containment: per thread, in start order, a span is a child of the
   deepest still-open span. Self time is the span's duration minus its
   children's; the folded line count is self time in µs, which is what
   flamegraph renderers expect. *)

let folded spans =
  let by_tid : (int, span list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt by_tid s.sp_tid with
      | Some l -> l := s :: !l
      | None -> Hashtbl.add by_tid s.sp_tid (ref [ s ]))
    spans;
  let tbl : (string, float ref) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _tid l ->
      let spans =
        List.sort
          (fun a b ->
            match compare a.sp_ts_us b.sp_ts_us with
            | 0 -> compare b.sp_dur_us a.sp_dur_us (* enclosing first *)
            | c -> c)
          !l
      in
      (* stack: innermost first, (name, end_ts, self_time ref) *)
      let stack = ref [] in
      List.iter
        (fun s ->
          let rec unwind () =
            match !stack with
            | (_, end_ts, _) :: rest when end_ts <= s.sp_ts_us ->
              stack := rest;
              unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with
          | (_, _, parent_self) :: _ ->
            parent_self := !parent_self -. s.sp_dur_us
          | [] -> ());
          let path =
            String.concat ";"
              (List.rev_map (fun (n, _, _) -> n) !stack @ [ s.sp_name ])
          in
          let self =
            match Hashtbl.find_opt tbl path with
            | Some r -> r
            | None ->
              let r = ref 0.0 in
              Hashtbl.add tbl path r;
              r
          in
          self := !self +. s.sp_dur_us;
          stack := (s.sp_name, s.sp_ts_us +. s.sp_dur_us, self) :: !stack)
        spans)
    by_tid;
  Hashtbl.fold (fun path self rows -> (path, !self) :: rows) tbl []
  |> List.sort compare

let flame files =
  let docs, ok = load_all files in
  let rows = folded (unique_spans docs) in
  List.iter
    (fun (path, self_us) ->
      (* clock skew between overlapping spans can push self time
         fractionally negative; clamp rather than emit garbage *)
      Printf.printf "%s %.0f\n" path (Float.max 0.0 self_us))
    rows;
  if ok && docs <> [] then 0 else 3

(* {1 report: render one artifact for a human} *)

let print_dump d =
  Printf.printf "== dump %s ==\n" (Filename.basename d.d_file);
  Printf.printf "reason   : %s\n" d.d_reason;
  Printf.printf "trace    : %s\n" (Option.value ~default:"-" d.d_trace);
  List.iter
    (fun (k, v) -> Printf.printf "request  : %-12s %s\n" k v)
    d.d_request;
  (match
     List.sort
       (fun (_, a) (_, b) -> compare (Float.abs b) (Float.abs a))
       d.d_delta
   with
  | [] -> ()
  | deltas ->
    Printf.printf "-- metrics delta (top %d) --\n" (min 12 (List.length deltas));
    List.iteri
      (fun i (name, v) ->
        if i < 12 then Printf.printf "%-40s %+.0f\n" name v)
      deltas);
  (match d.d_ring with
  | [] -> Printf.printf "-- ring: empty --\n"
  | ring ->
    let n = List.length ring in
    let tail = 16 in
    Printf.printf "-- ring (%d events%s) --\n" n
      (if n > tail then Printf.sprintf ", last %d" tail else "");
    List.iteri
      (fun i e ->
        if i >= n - tail then
          Printf.printf "%12.0fus d%d %-20s %s a=%.0f b=%.0f c=%.0f\n"
            e.rv_ts_us e.rv_dom e.rv_kind
            (if e.rv_trace = 0 then "-" else string_of_int e.rv_trace)
            e.rv_a e.rv_b e.rv_c)
      ring);
  match d.d_spans with
  | [] -> ()
  | spans ->
    Printf.printf "-- spans --\n";
    print_phases spans

let report files =
  let docs, ok = load_all files in
  List.iteri
    (fun i d ->
      if i > 0 then print_newline ();
      match d with
      | Dump dd -> print_dump dd
      | Chrome c ->
        Printf.printf "== trace %s (%d spans) ==\n"
          (Filename.basename c.c_file)
          (List.length c.c_spans);
        print_phases c.c_spans)
    docs;
  if ok && docs <> [] then 0 else 3

(* {1 CLI} *)

let files_arg =
  let doc = "Forensic dumps (qca-dump-*.json) and/or Chrome traces." in
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)

let report_cmd =
  let doc = "render dumps and traces for a human" in
  Cmd.v (Cmd.info "report" ~doc) Term.(const report $ files_arg)

let phases_cmd =
  let doc = "aggregate per-phase latency across the given files" in
  Cmd.v (Cmd.info "phases" ~doc) Term.(const phases $ files_arg)

let slow_cmd =
  let n =
    let doc = "How many requests to show." in
    Arg.(value & opt int 10 & info [ "n"; "top" ] ~docv:"N" ~doc)
  in
  let doc = "rank the slowest requests across dumps and traces" in
  Cmd.v (Cmd.info "slow" ~doc) Term.(const slow $ n $ files_arg)

let flame_cmd =
  let doc =
    "emit folded stacks (`a;b;c <self µs>` per line) for a flamegraph \
     renderer"
  in
  Cmd.v (Cmd.info "flame" ~doc) Term.(const flame $ files_arg)

let cmd =
  let doc = "read qca forensic dumps and Chrome traces" in
  Cmd.group
    (Cmd.info "qca-obs" ~doc)
    [ report_cmd; phases_cmd; slow_cmd; flame_cmd ]

let () = exit (Cmd.eval' cmd)
