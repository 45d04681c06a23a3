type span_record = {
  s_name : string;
  s_ts_us : int;
  s_dur_us : int;
  s_depth : int;
  s_tid : int;
  s_trace : int;  (* Tracectx.current_word at close time; 0 = none *)
  s_args : (string * string) list;
}

let live = Atomic.make false
let enabled () = Atomic.get live

let set_enabled b =
  Ring.set_keep_all b;
  Atomic.set live b

(* The open-span stack is per-domain state in DLS: spans nest within
   one domain and never migrate across domains. Each entry holds the
   span's ring slot, its name and its begin-side args. *)
let stack_key :
    (int * string * (string * string) list) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let stack () = Domain.DLS.get stack_key

let begin_span ?(args = []) name =
  if Atomic.get live then begin
    let st = stack () in
    let seq = Ring.open_span (Ring.kind name) ~depth:(List.length !st) in
    st := (seq, name, args) :: !st
  end

let end_span ?(args = []) name =
  if Atomic.get live then begin
    let st = stack () in
    match !st with
    | [] ->
      invalid_arg
        (Printf.sprintf "Trace.end_span: no open span (closing %S)" name)
    | (seq, top, bargs) :: rest ->
      if top <> name then
        invalid_arg
          (Printf.sprintf "Trace.end_span: closing %S but %S is open" name top);
      st := rest;
      Ring.close_span seq (bargs @ args)
  end

let span ?args name f =
  if not (Atomic.get live) then f ()
  else begin
    begin_span ?args name;
    Fun.protect ~finally:(fun () -> end_span name) f
  end

let of_event (e : Ring.event) =
  match e.Ring.e_span with
  | None -> None
  | Some args ->
    Some
      {
        s_name = e.Ring.e_kind;
        s_ts_us = e.Ring.e_ts_us;
        s_dur_us = e.Ring.e_a;
        s_depth = e.Ring.e_b;
        s_tid = e.Ring.e_dom;
        s_trace = e.Ring.e_trace;
        s_args = args;
      }

let spans () = List.filter_map of_event (Ring.events ())
let open_depth () = List.length !(stack ())

let reset () =
  Ring.reset ();
  stack () := []

(* {1 Rendering} *)

let pp_summary fmt () =
  let spans = spans () in
  Format.fprintf fmt "@[<v>== trace (%d spans) ==@," (List.length spans);
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
    spans;
  (match !(stack ()) with
  | [] -> ()
  | open_ ->
    Format.fprintf fmt "(still open: %s)@,"
      (String.concat " > " (List.rev_map (fun (_, n, _) -> n) open_)));
  Format.fprintf fmt "@]"

let escape = Metrics.json_escape

let args_json args =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\": \"%s\"" (escape k) (escape v))
         args)
  ^ "}"

(* A span is a complete ("X") row; a point event is a counter ("C")
   row carrying its payload, so e.g. omt.incumbent renders as a stepped
   series in Perfetto. *)
let event_json buf (e : Ring.event) =
  match e.Ring.e_span with
  | Some args ->
    let args =
      if e.Ring.e_trace = 0 then args
      else ("trace", string_of_int e.Ring.e_trace) :: args
    in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"name\": \"%s\", \"cat\": \"qca\", \"ph\": \"X\", \"ts\": %d, \
          \"dur\": %d, \"pid\": 1, \"tid\": %d, \"args\": %s}"
         (escape e.Ring.e_kind) e.Ring.e_ts_us e.Ring.e_a e.Ring.e_dom
         (args_json args))
  | None ->
    Buffer.add_string buf
      (Printf.sprintf
         "{\"name\": \"%s\", \"cat\": \"qca\", \"ph\": \"C\", \"ts\": %d, \
          \"pid\": 1, \"tid\": %d, \"args\": {\"a\": %d, \"b\": %d, \"c\": %d}}"
         (escape e.Ring.e_kind) e.Ring.e_ts_us e.Ring.e_dom e.Ring.e_a
         e.Ring.e_b e.Ring.e_c)

let to_chrome_json () =
  let es = Ring.events () in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  Buffer.add_string buf
    "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \
     \"args\": {\"name\": \"qca\"}}";
  (* One thread_name metadata row per distinct domain id seen. *)
  List.iter
    (fun t ->
      Buffer.add_string buf
        (Printf.sprintf
           ",\n  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \
            \"tid\": %d, \"args\": {\"name\": \"%s\"}}"
           t
           (if t = 0 then "main" else Printf.sprintf "domain-%d" t)))
    (List.sort_uniq compare (0 :: List.map (fun e -> e.Ring.e_dom) es));
  List.iter
    (fun e ->
      Buffer.add_string buf ",\n  ";
      event_json buf e)
    es;
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
let () =
  match Sys.getenv_opt "QCA_TRACE" with
  | None | Some "" | Some "0" -> ()
  | Some "1" ->
    set_enabled true;
    Metrics.set_enabled true;
    at_exit (fun () ->
        if spans () <> [] then Format.eprintf "%a@." pp_summary ())
  | Some file ->
    set_enabled true;
    Metrics.set_enabled true;
    at_exit (fun () -> write_chrome file)
