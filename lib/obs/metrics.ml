module Clock = Qca_util.Clock

type kind = Counter | Gauge | Histogram

let num_buckets = 32

(* Every cell is an [Atomic.t] so concurrent domains (pool and serve
   workers) never lose updates: int cells use fetch-and-add, float
   cells a CAS retry loop. The per-update cost with the registry off is
   still a single boolean load. *)
type metric = {
  m_name : string;
  m_kind : kind;
  c_value : int Atomic.t;  (* counters *)
  g_value : float Atomic.t;  (* gauges *)
  buckets : int Atomic.t array;  (* histograms only; [||] otherwise *)
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
  h_max : float Atomic.t;
}

type id = int

(* Registry storage: a growable array indexed by id plus the interning
   table, both guarded by [intern_m]. Growth blits the existing metric
   records (pointers) into the fresh array, so updaters racing through
   a stale [!metrics] still hit the same atomic cells. *)
let metrics : metric array ref = ref [||]
  [@@qca.domain_safe "guarded by intern_m"]

let n_metrics = ref 0
  [@@qca.domain_safe "guarded by intern_m"]

let by_name : (string, id) Hashtbl.t = Hashtbl.create 64
  [@@qca.domain_safe "guarded by intern_m"]
let intern_m = Mutex.create ()

let live = Atomic.make false
let enabled () = Atomic.get live

let started = Atomic.make 0.0

let set_enabled b =
  Atomic.set live b;
  if b then Atomic.set started (Clock.now ())

let elapsed_s () =
  if not (Atomic.get live) then 0.0
  else Clock.ms_between (Atomic.get started) (Clock.now ()) /. 1000.0

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let fresh_metric name kind =
  {
    m_name = name;
    m_kind = kind;
    c_value = Atomic.make 0;
    g_value = Atomic.make 0.0;
    buckets =
      (if kind = Histogram then Array.init num_buckets (fun _ -> Atomic.make 0)
       else [||]);
    h_count = Atomic.make 0;
    h_sum = Atomic.make 0.0;
    h_max = Atomic.make 0.0;
  }

let intern name kind =
  Mutex.lock intern_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock intern_m)
    (fun () ->
      match Hashtbl.find_opt by_name name with
      | Some id ->
        let m = !metrics.(id) in
        if m.m_kind <> kind then
          invalid_arg
            (Printf.sprintf "Metrics.%s: %S is already a %s" (kind_name kind)
               name
               (kind_name m.m_kind));
        id
      | None ->
        let id = !n_metrics in
        if id >= Array.length !metrics then begin
          let cap = max 64 (2 * Array.length !metrics) in
          let fresh = Array.make cap (fresh_metric "" Counter) in
          Array.blit !metrics 0 fresh 0 id;
          metrics := fresh
        end;
        !metrics.(id) <- fresh_metric name kind;
        incr n_metrics;
        Hashtbl.add by_name name id;
        id)

let counter name = intern name Counter
let gauge name = intern name Gauge
let histogram name = intern name Histogram

(* CAS loops for float cells. [accum_max] bails out as soon as the
   current maximum already dominates the sample. *)
let rec accum_float cell v =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. v)) then accum_float cell v

let rec accum_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then accum_max cell v

let incr id = if Atomic.get live then Atomic.incr !metrics.(id).c_value
let add id n = if Atomic.get live then ignore (Atomic.fetch_and_add !metrics.(id).c_value n)
let set id v = if Atomic.get live then Atomic.set !metrics.(id).g_value v

(* Bucket 0: v < 1 (zero, clamped negatives, NaN). Bucket i in 1..30:
   2^(i-1) <= v < 2^i (frexp exponent). Bucket 31: overflow. *)
let bucket_of v =
  if not (v >= 1.0) then 0
  else if v >= ldexp 1.0 (num_buckets - 2) then num_buckets - 1
  else
    let _, e = Float.frexp v in
    e

let bucket_bounds i =
  if i <= 0 then (0.0, 1.0)
  else if i >= num_buckets - 1 then (ldexp 1.0 (num_buckets - 2), infinity)
  else (ldexp 1.0 (i - 1), ldexp 1.0 i)

let observe id v =
  if Atomic.get live then begin
    let m = !metrics.(id) in
    let v = if v >= 0.0 then v else 0.0 (* clamp negatives and NaN *) in
    Atomic.incr m.buckets.(bucket_of v);
    Atomic.incr m.h_count;
    accum_float m.h_sum v;
    accum_max m.h_max v
  end
  [@@qca.hot]

let get id =
  if id < 0 || id >= !n_metrics then invalid_arg "Metrics: unknown id";
  !metrics.(id)

let name id = (get id).m_name
let kind_of id = (get id).m_kind
let value id = Atomic.get (get id).c_value
let gauge_value id = Atomic.get (get id).g_value
let bucket_counts id = Array.map Atomic.get (get id).buckets

type hist_summary = {
  h_count : int;
  h_sum : float;
  h_max : float;
  h_p50 : float;
  h_p90 : float;
  h_p95 : float;
  h_p99 : float;
}

(* Quantiles interpolate linearly within the bucket holding the target
   rank: at the bucket's last sample the estimate is its upper bound
   (matching the old "p50 <= hi" semantics), earlier ranks pull the
   estimate toward the lower bound. Estimates never exceed the
   recorded maximum, which is also what the overflow bucket reports. *)
let quantile (m : metric) count q =
  if count = 0 then 0.0
  else begin
    let target = int_of_float (ceil (q *. float_of_int count)) in
    let target = max 1 target in
    let before = ref 0 and in_bucket = ref 0 and b = ref 0 in
    (try
       for i = 0 to num_buckets - 1 do
         let n = Atomic.get m.buckets.(i) in
         if !before + n >= target then begin
           b := i;
           in_bucket := n;
           raise Exit
         end;
         before := !before + n
       done
     with Exit -> ());
    let lo, hi = bucket_bounds !b in
    let max_v = Atomic.get m.h_max in
    if hi = infinity || !in_bucket = 0 then max_v
    else
      let frac = float_of_int (target - !before) /. float_of_int !in_bucket in
      Float.min (lo +. (frac *. (hi -. lo))) max_v
  end

let summarize_m (m : metric) =
  let count = Atomic.get m.h_count in
  {
    h_count = count;
    h_sum = Atomic.get m.h_sum;
    h_max = Atomic.get m.h_max;
    h_p50 = quantile m count 0.5;
    h_p90 = quantile m count 0.9;
    h_p95 = quantile m count 0.95;
    h_p99 = quantile m count 0.99;
  }

let summarize id = summarize_m (get id)

type export =
  | Counter_v of string * int
  | Gauge_v of string * float
  | Histogram_v of string * hist_summary

let export () =
  List.init !n_metrics (fun id ->
      let m = !metrics.(id) in
      match m.m_kind with
      | Counter -> Counter_v (m.m_name, Atomic.get m.c_value)
      | Gauge -> Gauge_v (m.m_name, Atomic.get m.g_value)
      | Histogram -> Histogram_v (m.m_name, summarize_m m))

let pp_summary fmt () =
  Format.fprintf fmt "@[<v>== metrics ==@,";
  List.iter
    (fun e ->
      match e with
      | Counter_v (n, v) -> Format.fprintf fmt "%-32s %12d@," n v
      | Gauge_v (n, v) -> Format.fprintf fmt "%-32s %12.2f@," n v
      | Histogram_v (n, h) ->
        Format.fprintf fmt
          "%-32s n=%d sum=%.0f p50=%.1f p90=%.1f p99=%.1f max=%.0f@," n
          h.h_count h.h_sum h.h_p50 h.h_p90 h.h_p99 h.h_max)
    (export ());
  Format.fprintf fmt "@]"

(* Finite floats only reach this point (sums/maxima of clamped finite
   samples); print with enough digits to round-trip counters. *)
let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_object () =
  let buf = Buffer.create 512 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ", ";
      match e with
      | Counter_v (n, v) ->
        Buffer.add_string buf (Printf.sprintf "\"%s\": %d" (json_escape n) v)
      | Gauge_v (n, v) ->
        Buffer.add_string buf
          (Printf.sprintf "\"%s\": %s" (json_escape n) (json_float v))
      | Histogram_v (n, h) ->
        Buffer.add_string buf
          (Printf.sprintf
             "\"%s\": {\"count\": %d, \"sum\": %s, \"p50\": %s, \"p90\": %s, \
              \"p95\": %s, \"p99\": %s, \"max\": %s}"
             (json_escape n) h.h_count (json_float h.h_sum)
             (json_float h.h_p50) (json_float h.h_p90) (json_float h.h_p95)
             (json_float h.h_p99) (json_float h.h_max)))
    (export ());
  Buffer.add_char buf '}';
  Buffer.contents buf

let reset () =
  for id = 0 to !n_metrics - 1 do
    let m = !metrics.(id) in
    Atomic.set m.c_value 0;
    Atomic.set m.g_value 0.0;
    Array.iter (fun b -> Atomic.set b 0) m.buckets;
    Atomic.set m.h_count 0;
    Atomic.set m.h_sum 0.0;
    Atomic.set m.h_max 0.0
  done;
  Atomic.set started (Clock.now ())
