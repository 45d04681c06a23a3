module Clock = Qca_util.Clock

type span_record = {
  s_name : string;
  s_ts_us : int;
  s_dur_us : int;
  s_depth : int;
  s_tid : int;
  s_trace : int;  (* Tracectx.current_word at close time; 0 = none *)
  s_args : (string * string) list;
}

(* Spans carry their begin sequence number: timestamps are µs-coarse,
   so ties are common and start order cannot be recovered from them. *)
type event =
  | Span of int * span_record
  | Instant of {
      i_name : string;
      i_ts_us : int;
      i_tid : int;
      i_args : (string * string) list;
    }
  | Counter of { c_name : string; c_ts_us : int; c_tid : int; c_value : float }

let live = Atomic.make false
let enabled () = Atomic.get live

let t0 = Atomic.make (Clock.now ())

(* Completed events, in completion order, guarded by [rec_m] (several
   domains — pool workers, serve workers — record concurrently). The
   open-span stack is per-domain state in DLS: spans nest within one
   domain and never migrate across domains. *)
let rec_m = Mutex.create ()

let events : event list ref = ref []
  [@@qca.domain_safe "guarded by rec_m"]

let n_events = ref 0
  [@@qca.domain_safe "guarded by rec_m"]

let next_seq = ref 0
  [@@qca.domain_safe "guarded by rec_m"]

let stack_key :
    (int * string * int * (string * string) list) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key
let tid () = (Domain.self () :> int)

let now_us () =
  int_of_float (Clock.ms_between (Atomic.get t0) (Clock.now ()) *. 1000.0)

let record e =
  Mutex.lock rec_m;
  events := e :: !events;
  incr n_events;
  Mutex.unlock rec_m

let alloc_seq () =
  Mutex.lock rec_m;
  let seq = !next_seq in
  incr next_seq;
  Mutex.unlock rec_m;
  seq

let set_enabled b =
  if b && not (Atomic.get live) then Atomic.set t0 (Clock.now ());
  Atomic.set live b

let begin_span ?(args = []) name =
  if Atomic.get live then begin
    let seq = alloc_seq () in
    let st = stack () in
    st := (seq, name, now_us (), args) :: !st
  end

let end_span ?(args = []) name =
  if Atomic.get live then begin
    let st = stack () in
    match !st with
    | [] ->
      invalid_arg
        (Printf.sprintf "Trace.end_span: no open span (closing %S)" name)
    | (seq, top, ts, bargs) :: rest ->
      if top <> name then
        invalid_arg
          (Printf.sprintf "Trace.end_span: closing %S but %S is open" name top);
      st := rest;
      record
        (Span
           ( seq,
             {
               s_name = name;
               s_ts_us = ts;
               s_dur_us = max 0 (now_us () - ts);
               s_depth = List.length rest;
               s_tid = tid ();
               s_trace = Tracectx.current_word ();
               s_args = bargs @ args;
             } ))
  end

let span ?args name f =
  if not (Atomic.get live) then f ()
  else begin
    begin_span ?args name;
    Fun.protect ~finally:(fun () -> end_span name) f
  end

let instant ?(args = []) name =
  if Atomic.get live then
    record
      (Instant { i_name = name; i_ts_us = now_us (); i_tid = tid (); i_args = args })

let counter name v =
  if Atomic.get live then
    record
      (Counter { c_name = name; c_ts_us = now_us (); c_tid = tid (); c_value = v })

let all_events () =
  Mutex.lock rec_m;
  let es = !events in
  Mutex.unlock rec_m;
  es

let spans () =
  List.filter_map (function Span (q, s) -> Some (q, s) | _ -> None)
    (all_events ())
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let open_depth () = List.length !(stack ())

let events_recorded () =
  Mutex.lock rec_m;
  let n = !n_events in
  Mutex.unlock rec_m;
  n

let reset () =
  Mutex.lock rec_m;
  events := [];
  n_events := 0;
  next_seq := 0;
  Mutex.unlock rec_m;
  stack () := [];
  Atomic.set t0 (Clock.now ())

(* {1 Rendering} *)

let pp_summary fmt () =
  Format.fprintf fmt "@[<v>== trace (%d events) ==@," (events_recorded ());
  List.iter
    (fun s ->
      Format.fprintf fmt "%s%-*s %10.3f ms%s%s@,"
        (String.make (2 * s.s_depth) ' ')
        (max 1 (30 - (2 * s.s_depth)))
        s.s_name
        (float_of_int s.s_dur_us /. 1000.0)
        (if s.s_tid = 0 then "" else Printf.sprintf "  [tid %d]" s.s_tid)
        (match s.s_args with
        | [] -> ""
        | args ->
          "  ["
          ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) args)
          ^ "]"))
    (spans ());
  (match !(stack ()) with
  | [] -> ()
  | open_ ->
    Format.fprintf fmt "(still open: %s)@,"
      (String.concat " > " (List.rev_map (fun (_, n, _, _) -> n) open_)));
  Format.fprintf fmt "@]"

let escape = Metrics.json_escape

let args_json args =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\": \"%s\"" (escape k) (escape v))
         args)
  ^ "}"

let event_tid = function
  | Span (_, s) -> s.s_tid
  | Instant i -> i.i_tid
  | Counter c -> c.c_tid

let event_json buf e =
  match e with
  | Span (_, s) ->
    let args =
      if s.s_trace = 0 then s.s_args
      else ("trace", string_of_int s.s_trace) :: s.s_args
    in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"name\": \"%s\", \"cat\": \"qca\", \"ph\": \"X\", \"ts\": %d, \
          \"dur\": %d, \"pid\": 1, \"tid\": %d, \"args\": %s}"
         (escape s.s_name) s.s_ts_us s.s_dur_us s.s_tid (args_json args))
  | Instant i ->
    Buffer.add_string buf
      (Printf.sprintf
         "{\"name\": \"%s\", \"cat\": \"qca\", \"ph\": \"i\", \"ts\": %d, \
          \"s\": \"t\", \"pid\": 1, \"tid\": %d, \"args\": %s}"
         (escape i.i_name) i.i_ts_us i.i_tid (args_json i.i_args))
  | Counter c ->
    Buffer.add_string buf
      (Printf.sprintf
         "{\"name\": \"%s\", \"cat\": \"qca\", \"ph\": \"C\", \"ts\": %d, \
          \"pid\": 1, \"tid\": %d, \"args\": {\"value\": %s}}"
         (escape c.c_name) c.c_ts_us c.c_tid (Metrics.json_float c.c_value))

let to_chrome_json () =
  let es = all_events () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  Buffer.add_string buf
    "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
     \"args\": {\"name\": \"qca\"}}";
  (* One thread_name metadata row per distinct domain id seen. *)
  let tids =
    List.sort_uniq compare (0 :: List.rev_map event_tid es)
  in
  List.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf
           ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \
            \"tid\": %d, \"args\": {\"name\": \"%s\"}}"
           t
           (if t = 0 then "main" else Printf.sprintf "domain-%d" t)))
    tids;
  List.iter
    (fun e ->
      Buffer.add_string buf ",\n  ";
      event_json buf e)
    (List.rev es);
  Buffer.add_string buf "\n],\n\"displayTimeUnit\": \"ms\",\n";
  Buffer.add_string buf ("\"otherData\": {\"metrics\": " ^ Metrics.json_object ());
  Buffer.add_string buf "}}\n";
  Buffer.contents buf

let write_chrome file =
  let oc = open_out file in
  output_string oc (to_chrome_json ());
  close_out oc

(* QCA_TRACE: arm the tracer (and the metrics registry) for the whole
   process; the trace is flushed at exit — to the named file, or as the
   tree summary on stderr for QCA_TRACE=1. *)
let env_file =
  match Sys.getenv_opt "QCA_TRACE" with
  | None | Some "" | Some "0" -> None
  | Some v ->
    set_enabled true;
    Metrics.set_enabled true;
    if v = "1" then begin
      at_exit (fun () ->
          if events_recorded () > 0 then Format.eprintf "%a@." pp_summary ());
      None
    end
    else begin
      at_exit (fun () -> write_chrome v);
      Some v
    end
