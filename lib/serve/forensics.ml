module Clock = Qca_util.Clock
module Obs = Qca_obs.Metrics
module Trace = Qca_obs.Trace
module Ring = Qca_obs.Ring
module Tracectx = Qca_obs.Tracectx

(* {1 Metrics snapshots and deltas}

   A per-request snapshot is taken only when forensics is armed (a
   dump directory is configured): one registry walk per request, paid
   so an eventual dump can say what *this* request consumed, not what
   the process consumed since boot. Gauges are levels, not flows, so
   they are excluded from deltas. *)

type snapshot = (string * float) list

let snapshot () =
  List.concat_map
    (fun e ->
      match e with
      | Obs.Counter_v (n, v) -> [ (n, float_of_int v) ]
      | Obs.Gauge_v _ -> []
      | Obs.Histogram_v (n, h) ->
        [ (n ^ ".count", float_of_int h.Obs.h_count); (n ^ ".sum", h.Obs.h_sum) ])
    (Obs.export ())

let delta_json (before : snapshot) =
  let now = snapshot () in
  let entries =
    List.filter_map
      (fun (name, v) ->
        let v0 =
          match List.assoc_opt name before with Some v0 -> v0 | None -> 0.0
        in
        let d = v -. v0 in
        if d = 0.0 then None
        else
          Some
            (Printf.sprintf "\"%s\": %s" (Obs.json_escape name)
               (Obs.json_float d)))
      now
  in
  "{" ^ String.concat ", " entries ^ "}"

(* {1 Span JSON} *)

let span_json (s : Trace.span_record) =
  let args =
    String.concat ", "
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\": \"%s\"" (Obs.json_escape k)
             (Obs.json_escape v))
         s.Trace.s_args)
  in
  Printf.sprintf
    "{\"name\": \"%s\", \"ts_us\": %d, \"dur_us\": %d, \"depth\": %d, \
     \"tid\": %d, \"trace\": %d, \"args\": {%s}}"
    (Obs.json_escape s.Trace.s_name)
    s.Trace.s_ts_us s.Trace.s_dur_us s.Trace.s_depth s.Trace.s_tid
    s.Trace.s_trace args

(* {1 Dump documents} *)

(* [events] is one {!Ring.events} read, already sliced: its point
   events become the [ring] field and its spans the [spans] field, both
   on the log's one clock. *)
let dump_json ~reason ~trace ~request ~events ~delta =
  let ring = List.filter (fun e -> e.Ring.e_span = None) events in
  let spans = List.filter_map Trace.of_event events in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"schema\": \"qca.dump.v1\",\n";
  Buffer.add_string b (Printf.sprintf "\"reason\": \"%s\",\n" (Obs.json_escape reason));
  (match trace with
  | Some (c : Tracectx.t) ->
    Buffer.add_string b
      (Printf.sprintf "\"trace_id\": \"%s\",\n\"traceparent\": \"%s\",\n"
         c.Tracectx.trace_id
         (Tracectx.to_traceparent c))
  | None -> Buffer.add_string b "\"trace_id\": null,\n");
  Buffer.add_string b
    (Printf.sprintf "\"written_at_s\": %s,\n" (Obs.json_float (Clock.now ())));
  Buffer.add_string b "\"request\": {";
  Buffer.add_string b
    (String.concat ", "
       (List.map
          (fun (k, v) ->
            Printf.sprintf "\"%s\": \"%s\"" (Obs.json_escape k)
              (Obs.json_escape v))
          request));
  Buffer.add_string b "},\n";
  Buffer.add_string b ("\"metrics_delta\": " ^ delta ^ ",\n");
  Buffer.add_string b ("\"metrics\": " ^ Obs.json_object () ^ ",\n");
  Buffer.add_string b ("\"ring\": " ^ Ring.events_json ring ^ ",\n");
  Buffer.add_string b
    ("\"spans\": [" ^ String.concat ", " (List.map span_json spans) ^ "]}\n");
  Buffer.contents b

(* {1 The bounded, rate-limited dump directory} *)

let is_dump_file name =
  String.length name > 9
  && String.sub name 0 9 = "qca-dump-"
  && Filename.check_suffix name ".json"

let prune_dir dir max_files =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
    let dumps = Array.to_list entries |> List.filter is_dump_file in
    let n = List.length dumps in
    if n > max_files then
      (* filenames embed a zero-padded µs timestamp: lexicographic
         order is chronological order *)
      List.sort compare dumps
      |> List.filteri (fun i _ -> i < n - max_files)
      |> List.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* One dump per [min_interval_ms] process-wide: under a failure storm
   the first anomaly is captured and the rest only bump a counter. *)
let last_dump_at = Atomic.make neg_infinity
let m_dumps = Obs.counter "serve.dumps"
let m_dumps_suppressed = Obs.counter "serve.dumps_suppressed"

let reset_limiter () = Atomic.set last_dump_at neg_infinity

let rec claim_slot ~min_interval_ms now =
  let last = Atomic.get last_dump_at in
  if Clock.ms_between last now < min_interval_ms && last > neg_infinity then
    false
  else if Atomic.compare_and_set last_dump_at last now then true
  else claim_slot ~min_interval_ms now

let short_trace = function
  | Some (c : Tracectx.t) -> String.sub c.Tracectx.trace_id 0 16
  | None -> "live"

let write_file ~dir ~max_files ~reason ~trace body =
  match
    mkdir_p dir;
    let name =
      Printf.sprintf "qca-dump-%016.0f-%s-%s.json"
        (Clock.now () *. 1e6)
        reason (short_trace trace)
    in
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc body;
    close_out oc;
    prune_dir dir max_files;
    path
  with
  | path ->
    Obs.incr m_dumps;
    Some path
  | exception (Sys_error _ | Unix.Unix_error (_, _, _)) -> None

let write_dump ~dir ~max_files ~min_interval_ms ~reason ~trace ~request
    ~since_us ~before () =
  if not (claim_slot ~min_interval_ms (Clock.now ())) then begin
    Obs.incr m_dumps_suppressed;
    None
  end
  else begin
    (* the request's own events and spans (wherever they sit in the
       retention window) plus every point event any domain recorded
       while it ran: cross-request context is evidence, not noise *)
    let keep =
      match trace with
      | None -> fun e -> e.Ring.e_span <> None || e.Ring.e_ts_us >= since_us
      | Some c ->
        let w = Tracectx.word c in
        fun e ->
          e.Ring.e_trace = w
          || (e.Ring.e_span = None && e.Ring.e_ts_us >= since_us)
    in
    let events = List.filter keep (Ring.events ()) in
    let delta = match before with Some s -> delta_json s | None -> "{}" in
    write_file ~dir ~max_files ~reason ~trace
      (dump_json ~reason ~trace ~request ~events ~delta)
  end

let dump_all ~dir ~max_files ~reason =
  let body =
    dump_json ~reason ~trace:None
      ~request:[ ("scope", "process") ]
      ~events:(Ring.events ()) ~delta:"{}"
  in
  write_file ~dir ~max_files ~reason ~trace:None body

(* {1 SIGUSR1: dump everything, live}

   The handler only flips an atomic flag; whoever owns the serve loop
   (the daemon's wait loop, or the watchdog) services it outside
   signal context. *)

let sigusr1_requested = Atomic.make false
let request_live_dump () = Atomic.set sigusr1_requested true

let install_sigusr1 () =
  Sys.set_signal Sys.sigusr1
    (Sys.Signal_handle (fun _ -> Atomic.set sigusr1_requested true))

let service_live_dump ~dir ~max_files =
  if Atomic.exchange sigusr1_requested false then
    dump_all ~dir ~max_files ~reason:"sigusr1"
  else None

(* {1 Stuck-solver watchdog}

   Samples the solver's Atomic counters: when requests are in flight
   but conflicts and propagations have both been flat for
   [stall_samples] consecutive periods, the solver is burning wall
   clock without searching — a lock-up, a livelock, or a stuck theory
   loop. That is a ring event, a counter, and (when a dump directory
   is armed) a rate-limited dump. *)

let m_stuck = Obs.counter "serve.watchdog.stuck"
let k_stuck = Ring.kind "serve.stuck"
let stall_samples = 3

type watch_state = {
  mutable w_conflicts : int;
  mutable w_propagations : int;
  mutable w_stall : int;
}

let watch_state () = { w_conflicts = -1; w_propagations = -1; w_stall = 0 }

let sat_conflicts = Obs.counter "sat.conflicts"
let sat_propagations = Obs.counter "sat.propagations"

let watch_step st ~inflight =
  let c = Obs.value sat_conflicts and p = Obs.value sat_propagations in
  let flat = c = st.w_conflicts && p = st.w_propagations in
  st.w_conflicts <- c;
  st.w_propagations <- p;
  if inflight > 0 && flat then begin
    st.w_stall <- st.w_stall + 1;
    if st.w_stall >= stall_samples then begin
      st.w_stall <- 0;
      Obs.incr m_stuck;
      Ring.record k_stuck inflight c p;
      true
    end
    else false
  end
  else begin
    st.w_stall <- 0;
    false
  end
