open Qca_adapt

type format = Text | Qasm

type adapt_request = {
  method_ : Pipeline.method_;
  hardware : Hardware.t;
  format : format;
  timeout_ms : float option;
  max_conflicts : int option;
  use_cache : bool;
  traceparent : string option;
  circuit_text : string;
}

type error_code =
  | Bad_frame
  | Too_large
  | Invalid_circuit
  | Unsupported
  | Overloaded
  | Shutting_down
  | Internal

type shed = No_shed | Shed_greedy | Shed_direct
type cache_status = Cache_hit | Cache_miss | Cache_revalidated

type result_payload = {
  tier : Pipeline.tier;
  reason : string option;
  shed : shed;
  cache : cache_status;
  cache_key : string;
  conflicts : int;
  propagations : int;
  elapsed_ms : float;
  queue_ms : float;
  trace_id : string;
  makespan : int option;
  proven : bool;
  certified : bool option;
  adapted_text : string;
}

type response =
  | Result of result_payload
  | Error_resp of {
      code : error_code;
      message : string;
      retry_after_ms : int option;
    }

(* {1 Names} *)

(* each parser is the inverse of its printer over every constructor *)
let inverse to_string all s = List.find_opt (fun x -> to_string x = s) all

let tier_to_string = Pipeline.tier_name

let tier_of_string =
  inverse tier_to_string
    Pipeline.[ Full; Incumbent; Greedy_fallback; Direct_fallback ]

let error_code_to_string = function
  | Bad_frame -> "bad-frame"
  | Too_large -> "too-large"
  | Invalid_circuit -> "invalid-circuit"
  | Unsupported -> "unsupported"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting-down"
  | Internal -> "internal"

let error_code_of_string =
  inverse error_code_to_string
    [
      Bad_frame; Too_large; Invalid_circuit; Unsupported; Overloaded;
      Shutting_down; Internal;
    ]

let shed_to_string = function
  | No_shed -> "none"
  | Shed_greedy -> "greedy"
  | Shed_direct -> "direct"

let shed_of_string = inverse shed_to_string [ No_shed; Shed_greedy; Shed_direct ]

let cache_to_string = function
  | Cache_hit -> "hit"
  | Cache_miss -> "miss"
  | Cache_revalidated -> "revalidated"

let cache_of_string =
  inverse cache_to_string [ Cache_hit; Cache_miss; Cache_revalidated ]

(* {1 Requests} *)

let ms = Printf.sprintf "%.3f"

let http_of_adapt_request r =
  let query =
    [
      ("method", Pipeline.method_to_string r.method_);
      ("hw", String.lowercase_ascii r.hardware.Hardware.name);
      ("format", match r.format with Text -> "text" | Qasm -> "qasm");
    ]
    @ (match r.timeout_ms with Some t -> [ ("timeout-ms", ms t) ] | None -> [])
    @ (match r.max_conflicts with
      | Some n -> [ ("max-conflicts", string_of_int n) ]
      | None -> [])
    @ if r.use_cache then [] else [ ("cache", "off") ]
  in
  ( "/adapt?" ^ String.concat "&" (List.map (fun (k, v) -> k ^ "=" ^ v) query),
    match r.traceparent with Some tp -> [ ("traceparent", tp) ] | None -> [] )

let adapt_request_of_http ~params ~headers body =
  let ( let* ) = Result.bind in
  let param k = List.assoc_opt k params in
  let unsupported r = Result.map_error (fun e -> (Unsupported, e)) r in
  let* method_ =
    match param "method" with
    | None -> Ok (Pipeline.Sat Model.Sat_p)
    | Some m -> unsupported (Pipeline.method_of_string m)
  in
  let* hardware =
    match param "hw" with
    | None -> Ok Hardware.d0
    | Some h -> unsupported (Hardware.of_string h)
  in
  let* format =
    match param "format" with
    | None | Some "text" -> Ok Text
    | Some "qasm" -> Ok Qasm
    | Some other -> Error (Unsupported, Printf.sprintf "unknown format %S" other)
  in
  let* timeout_ms =
    match param "timeout-ms" with
    | None -> Ok None
    | Some v -> (
      match float_of_string_opt v with
      | Some t when t >= 0.0 && Float.is_finite t -> Ok (Some t)
      | Some _ | None -> Error (Bad_frame, "invalid timeout-ms"))
  in
  let* max_conflicts =
    match param "max-conflicts" with
    | None -> Ok None
    | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> Ok (Some n)
      | Some _ | None -> Error (Bad_frame, "invalid max-conflicts"))
  in
  Ok
    {
      method_;
      hardware;
      format;
      timeout_ms;
      max_conflicts;
      use_cache = param "cache" <> Some "off";
      traceparent = List.assoc_opt "traceparent" headers;
      circuit_text = body;
    }

(* {1 Responses} *)

let status_of_error = function
  | Too_large -> 413
  | Bad_frame | Invalid_circuit | Unsupported -> 400
  | Overloaded | Shutting_down -> 503
  | Internal -> 500

let trace_headers ~trace_id ~queue_ms =
  (if trace_id = "" then [] else [ ("X-Qca-Trace-Id", trace_id) ])
  @ [ ("X-Qca-Queue-Ms", ms queue_ms) ]

let yes_no b = if b then "yes" else "no"

let http_of_response = function
  | Result r ->
    let opt name f = function Some v -> [ (name, f v) ] | None -> [] in
    ( 200,
      trace_headers ~trace_id:r.trace_id ~queue_ms:r.queue_ms
      @ [
          ("X-Qca-Tier", tier_to_string r.tier);
          ("X-Qca-Shed", shed_to_string r.shed);
          ("X-Qca-Cache", cache_to_string r.cache);
          ("X-Qca-Cache-Key", r.cache_key);
          ("X-Qca-Conflicts", string_of_int r.conflicts);
          ("X-Qca-Propagations", string_of_int r.propagations);
          ("X-Qca-Elapsed-Ms", ms r.elapsed_ms);
          ("X-Qca-Proven", yes_no r.proven);
        ]
      @ opt "X-Qca-Reason" Fun.id r.reason
      @ opt "X-Qca-Makespan" string_of_int r.makespan
      @ opt "X-Qca-Certified" yes_no r.certified,
      r.adapted_text )
  | Error_resp { code; message; retry_after_ms } ->
    ( status_of_error code,
      ("X-Qca-Error", error_code_to_string code)
      :: (match retry_after_ms with
         | Some ms ->
           [ ("Retry-After", string_of_int ((ms + 999) / 1000)) ]
         | None -> []),
      message ^ "\n" )

let response_of_http ~status headers body =
  let lookup k = List.assoc_opt k headers in
  match Option.map error_code_of_string (lookup "x-qca-error") with
  | Some None -> Error "unknown X-Qca-Error code"
  | Some (Some code) ->
    let message =
      match String.length body with
      | n when n > 0 && body.[n - 1] = '\n' -> String.sub body 0 (n - 1)
      | _ -> body
    in
    let retry_after_ms =
      Option.map (fun s -> s * 1000)
        (Option.bind (lookup "retry-after") int_of_string_opt)
    in
    Ok (Error_resp { code; message; retry_after_ms })
  | None when status <> 200 ->
    Error (Printf.sprintf "HTTP %d: %s" status (String.trim body))
  | None -> (
    let ( let* ) = Result.bind in
    let req name of_string =
      match Option.bind (lookup name) of_string with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing or invalid %s header" name)
    in
    let* tier = req "x-qca-tier" tier_of_string in
    let* shed = req "x-qca-shed" shed_of_string in
    let* cache = req "x-qca-cache" cache_of_string in
    let* conflicts = req "x-qca-conflicts" int_of_string_opt in
    let* propagations = req "x-qca-propagations" int_of_string_opt in
    let* elapsed_ms = req "x-qca-elapsed-ms" float_of_string_opt in
    Ok
      (Result
         {
           tier;
           reason = lookup "x-qca-reason";
           shed;
           cache;
           cache_key = Option.value ~default:"" (lookup "x-qca-cache-key");
           conflicts;
           propagations;
           elapsed_ms;
           queue_ms =
             Option.value ~default:0.0
               (Option.bind (lookup "x-qca-queue-ms") float_of_string_opt);
           trace_id = Option.value ~default:"" (lookup "x-qca-trace-id");
           makespan = Option.bind (lookup "x-qca-makespan") int_of_string_opt;
           proven = lookup "x-qca-proven" = Some "yes";
           certified =
             (match lookup "x-qca-certified" with
             | Some "yes" -> Some true
             | Some "no" -> Some false
             | Some _ | None -> None);
           adapted_text = body;
         }))
