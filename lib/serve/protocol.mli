open Qca_adapt

(** The service's request and response types, and their one mapping
    onto HTTP/1.1.

    A request is [POST /adapt] with the circuit as the body; the query
    carries [method] (default [sat-p]), [hw] (default [d0]), [format]
    ([text]/[qasm]), [timeout-ms], [max-conflicts] and [cache=off], and
    a [traceparent] header may name the caller's trace. A result is a
    [200] whose body is the adapted circuit and whose [X-Qca-*]
    headers carry the telemetry; a typed error is a [4xx]/[5xx] with
    [X-Qca-Error] (plus [Retry-After] on a refusal) and the message as
    the body.

    Everything in a request is untrusted: every decode error is a typed
    {!error_code} — never an exception. *)

type format = Text | Qasm

type adapt_request = {
  method_ : Pipeline.method_;
  hardware : Hardware.t;
  format : format;
  timeout_ms : float option;  (** request deadline; server clamps *)
  max_conflicts : int option;
  use_cache : bool;  (** [false] opts out of the result cache *)
  traceparent : string option;
      (** W3C trace context to adopt; invalid values are ignored and a
          fresh trace id is generated *)
  circuit_text : string;
}

type error_code =
  | Bad_frame  (** malformed request head, parameters or headers *)
  | Too_large  (** body over the server's byte cap *)
  | Invalid_circuit  (** wire validation or parse failure *)
  | Unsupported  (** unknown method/hardware/format *)
  | Overloaded  (** admission control refused; retry later *)
  | Shutting_down
  | Internal  (** handler crash or refuted certificate *)

type shed = No_shed | Shed_greedy | Shed_direct
    (** how far admission control demoted the request before solving *)

type cache_status = Cache_hit | Cache_miss | Cache_revalidated

type result_payload = {
  tier : Pipeline.tier;
  reason : string option;  (** stop reason when degraded *)
  shed : shed;
  cache : cache_status;
  cache_key : string;  (** hex digest of the content address *)
  conflicts : int;
  propagations : int;
  elapsed_ms : float;
  queue_ms : float;  (** time spent queued before a worker picked it up *)
  trace_id : string;  (** the request's trace id ("" when unknown) *)
  makespan : int option;  (** the solver's claimed duration, if any *)
  proven : bool;
      (** the circuit's objective value is a proven optimum
          ({!Pipeline.info}'s [proven_optimal]); [X-Qca-Proven: yes|no] *)
  certified : bool option;  (** [None] = not checked on this response *)
  adapted_text : string;  (** adapted circuit, textual format *)
}

type response =
  | Result of result_payload
  | Error_resp of {
      code : error_code;
      message : string;
      retry_after_ms : int option;
    }

(** {1 Names} *)

val tier_to_string : Pipeline.tier -> string
val tier_of_string : string -> Pipeline.tier option
val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option
val shed_to_string : shed -> string
val shed_of_string : string -> shed option

(** {1 HTTP mapping}

    Header names are matched lowercased, as {!Http.parse_head} and
    {!Http.parse_response_head} deliver them. *)

val http_of_adapt_request : adapt_request -> string * (string * string) list
(** The [/adapt] target with its query, and the request headers; the
    body is [circuit_text]. *)

val adapt_request_of_http :
  params:(string * string) list ->
  headers:(string * string) list ->
  string ->
  (adapt_request, error_code * string) result
(** Query parameters, request headers and body → a request. *)

val status_of_error : error_code -> int
(** [too-large] 413; [bad-frame], [invalid-circuit], [unsupported] 400;
    [overloaded], [shutting-down] 503; [internal] 500. *)

val trace_headers : trace_id:string -> queue_ms:float -> (string * string) list
(** [X-Qca-Trace-Id] and [X-Qca-Queue-Ms]; a result carries them
    itself, the server adds them to a request's typed error. *)

val http_of_response : response -> int * (string * string) list * string
(** Status, headers and body. [Retry-After] is the hint rounded up to
    whole seconds. *)

val response_of_http :
  status:int -> (string * string) list -> string -> (response, string) result
(** Inverse of {!http_of_response}: any reply with [X-Qca-Error] is a
    typed error, a [200] is a result; anything else (or a result with a
    missing or malformed header) is [Error]. *)
