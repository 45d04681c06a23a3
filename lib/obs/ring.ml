module Clock = Qca_util.Clock

(* {1 Kinds: interned event names, same discipline as Metrics ids} *)

let kind_names : string array ref = ref [||]
  [@@qca.domain_safe "guarded by kind_m"]

let n_kinds = ref 0
  [@@qca.domain_safe "guarded by kind_m"]

let kind_by_name : (string, int) Hashtbl.t = Hashtbl.create 32
  [@@qca.domain_safe "guarded by kind_m"]

let kind_m = Mutex.create ()

let kind name =
  Mutex.lock kind_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock kind_m)
    (fun () ->
      match Hashtbl.find_opt kind_by_name name with
      | Some k -> k
      | None ->
        let k = !n_kinds in
        if k >= Array.length !kind_names then begin
          let cap = max 32 (2 * Array.length !kind_names) in
          let fresh = Array.make cap "" in
          Array.blit !kind_names 0 fresh 0 k;
          kind_names := fresh
        end;
        !kind_names.(k) <- name;
        incr n_kinds;
        Hashtbl.add kind_by_name name k;
        k)

let kind_name k =
  Mutex.lock kind_m;
  let n =
    if k >= 0 && k < !n_kinds then !kind_names.(k)
    else Printf.sprintf "kind-%d" k
  in
  Mutex.unlock kind_m;
  n

(* {1 Per-domain buffers}

   One flat int array per domain, [words] ints per slot:
   ts_us · kind · trace word · a · b · c, with a parallel array holding
   a span's args. A domain only ever writes its own buffer, so
   recording takes no lock and allocates nothing (beyond the boxed
   float inside the clock read). [b_next] counts records ever made and
   [b_first] is the oldest one retained; the capacity is the length of
   the current store, which is swapped whole when it grows so that a
   reader never pairs an array with another array's capacity.

   A span claims its slot when it opens, so slot order is start order
   even when µs timestamps tie; its kind word is [lnot kind] and its
   [a] word reads [-1] until it closes. *)

let words = 6

type store = { data : int array; args : (string * string) list array }

type buf = {
  b_dom : int;
  mutable b_store : store;
  mutable b_first : int;
  mutable b_next : int;
}

let default_capacity = 4096

let fresh_store cap =
  { data = Array.make (cap * words) 0; args = Array.make cap [] }

(* [live] is the hot-path guard: on while the flight recorder is armed
   or while every event is being kept (an armed tracer). *)
let recorder = Atomic.make false
let keep = Atomic.make false
let live = Atomic.make false

let refresh () = Atomic.set live (Atomic.get recorder || Atomic.get keep)

let set_enabled b =
  Atomic.set recorder b;
  refresh ()

let set_keep_all b =
  Atomic.set keep b;
  refresh ()

let t0 = Atomic.make (Clock.now ())

(* All buffers ever created, for the merge at dump time. A buffer is
   registered once, when its domain first records. *)
let bufs : buf list ref = ref []
  [@@qca.domain_safe "guarded by bufs_m"]

let bufs_m = Mutex.create ()

let buf_key : buf Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          b_dom = (Domain.self () :> int);
          b_store = fresh_store default_capacity;
          b_first = 0;
          b_next = 0;
        }
      in
      Mutex.lock bufs_m;
      bufs := b :: !bufs;
      Mutex.unlock bufs_m;
      b)

let now_us () =
  int_of_float (Clock.ms_between (Atomic.get t0) (Clock.now ()) *. 1000.0)

(* A full buffer either drops its oldest record (the flight recorder)
   or doubles, keeping every record in sequence order. *)
let make_room buf =
  if not (Atomic.get keep) then buf.b_first <- buf.b_first + 1
  else begin
    let old = buf.b_store in
    let old_cap = Array.length old.args in
    let cap = 2 * old_cap in
    let st = fresh_store cap in
    for seq = buf.b_first to buf.b_next - 1 do
      let o = seq mod old_cap and n = seq mod cap in
      Array.blit old.data (o * words) st.data (n * words) words;
      st.args.(n) <- old.args.(o)
    done;
    buf.b_store <- st
  end

(* The data offset of the slot for record [b_next]; the caller writes
   it and then bumps [b_next], so a reader never sees it half-written. *)
let[@inline] next_slot buf =
  if buf.b_next - buf.b_first = Array.length buf.b_store.args then
    make_room buf;
  buf.b_next mod Array.length buf.b_store.args * words

let record_slow k a b c =
  let buf = Domain.DLS.get buf_key in
  let base = next_slot buf in
  let data = buf.b_store.data in
  data.(base) <- now_us ();
  data.(base + 1) <- k;
  data.(base + 2) <- Tracectx.current_word ();
  data.(base + 3) <- a;
  data.(base + 4) <- b;
  data.(base + 5) <- c;
  buf.b_next <- buf.b_next + 1
  [@@qca.hot]

let[@inline] record k a b c = if Atomic.get live then record_slow k a b c

let open_span k ~depth =
  let buf = Domain.DLS.get buf_key in
  let base = next_slot buf in
  let st = buf.b_store in
  st.data.(base) <- now_us ();
  st.data.(base + 1) <- lnot k;
  st.data.(base + 2) <- Tracectx.current_word ();
  st.data.(base + 3) <- -1;
  st.data.(base + 4) <- depth;
  st.data.(base + 5) <- 0;
  st.args.(base / words) <- [];
  let seq = buf.b_next in
  buf.b_next <- seq + 1;
  seq

let close_span seq args =
  let buf = Domain.DLS.get buf_key in
  if seq >= buf.b_first && seq < buf.b_next then begin
    let st = buf.b_store in
    let slot = seq mod Array.length st.args in
    let base = slot * words in
    st.data.(base + 2) <- Tracectx.current_word ();
    st.args.(slot) <- args;
    st.data.(base + 3) <- max 0 (now_us () - st.data.(base))
  end

(* {1 Reading}

   Reads are forensic: dumping another domain's buffer mid-write can
   see a slot that is being overwritten (the merge sorts it out of
   order at worst). A domain reading its own buffer — the per-request
   dump path — sees exactly what it wrote. *)

type event = {
  e_ts_us : int;
  e_kind : string;
  e_trace : int;
  e_a : int;
  e_b : int;
  e_c : int;
  e_dom : int;
  e_span : (string * string) list option;
}

let snapshot_bufs () =
  Mutex.lock bufs_m;
  let bs = !bufs in
  Mutex.unlock bufs_m;
  bs

(* Open spans (duration still -1) are left out. *)
let buf_events b =
  let st = b.b_store in
  let cap = Array.length st.args in
  let next = b.b_next in
  let first = max b.b_first (next - cap) in
  List.init (next - first) (fun i -> first + i)
  |> List.filter_map (fun seq ->
         let slot = seq mod cap in
         let base = slot * words in
         let d = st.data in
         let k = d.(base + 1) in
         if k < 0 && d.(base + 3) < 0 then None
         else
           Some
             ( (d.(base), b.b_dom, seq),
               {
                 e_ts_us = d.(base);
                 e_kind = kind_name (if k < 0 then lnot k else k);
                 e_trace = d.(base + 2);
                 e_a = d.(base + 3);
                 e_b = d.(base + 4);
                 e_c = d.(base + 5);
                 e_dom = b.b_dom;
                 e_span = (if k < 0 then Some st.args.(slot) else None);
               } ))

let events ?trace () =
  snapshot_bufs ()
  |> List.concat_map buf_events
  |> List.filter (fun (_, e) ->
         match trace with None -> true | Some w -> e.e_trace = w)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let total_recorded () =
  List.fold_left (fun acc b -> acc + b.b_next) 0 (snapshot_bufs ())

let reset () =
  Mutex.lock bufs_m;
  List.iter
    (fun b ->
      b.b_store <- fresh_store default_capacity;
      b.b_first <- 0;
      b.b_next <- 0)
    !bufs;
  Mutex.unlock bufs_m;
  Atomic.set t0 (Clock.now ())

(* {1 Export} *)

let event_json e =
  Printf.sprintf
    "{\"ts_us\": %d, \"kind\": \"%s\", \"trace\": %d, \"a\": %d, \"b\": %d, \
     \"c\": %d, \"dom\": %d}"
    e.e_ts_us (Metrics.json_escape e.e_kind) e.e_trace e.e_a e.e_b e.e_c e.e_dom

let events_json es =
  "[" ^ String.concat ", " (List.map event_json es) ^ "]"
