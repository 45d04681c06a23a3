module Circuit = Qca_circuit.Circuit
module Obs = Qca_obs.Metrics

let m_hits = Obs.counter "serve.cache.hits"
let m_misses = Obs.counter "serve.cache.misses"
let m_evictions = Obs.counter "serve.cache.evictions"
let m_invalidations = Obs.counter "serve.cache.invalidations"
let m_size = Obs.gauge "serve.cache.size"

type entry = {
  adapted : Circuit.t;
  makespan : int option;
  proven : bool;
  digest : string;
}

type slot = { e : entry; mutable stamp : int }

type t = {
  cap : int;
  tbl : (string, slot) Hashtbl.t;
  m : Mutex.t;
  mutable clock : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity < 1";
  { cap = capacity; tbl = Hashtbl.create (2 * capacity); m = Mutex.create (); clock = 0 }

let capacity t = t.cap

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let length t = locked t (fun () -> Hashtbl.length t.tbl)

let key ~hardware ~method_ ~circuit =
  (* '\x00' can never occur in validated wire input, so it is a safe
     field separator for the content address *)
  String.concat "\x00" [ hardware; method_; circuit ]

let digest_hex s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl k with
      | Some slot ->
        slot.stamp <- tick t;
        Obs.incr m_hits;
        Some slot.e
      | None ->
        Obs.incr m_misses;
        None)

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k slot acc ->
        match acc with
        | Some (_, best) when best <= slot.stamp -> acc
        | _ -> Some (k, slot.stamp))
      t.tbl None
  in
  match victim with
  | Some (k, _) ->
    Hashtbl.remove t.tbl k;
    Obs.incr m_evictions
  | None -> ()

let add t ~key:k ~adapted ~makespan ~proven =
  locked t (fun () ->
      if not (Hashtbl.mem t.tbl k) && Hashtbl.length t.tbl >= t.cap then
        evict_lru t;
      Hashtbl.replace t.tbl k
        { e = { adapted; makespan; proven; digest = digest_hex k }; stamp = tick t };
      Obs.set m_size (float_of_int (Hashtbl.length t.tbl)))

let invalidate t k =
  locked t (fun () ->
      if Hashtbl.mem t.tbl k then begin
        Hashtbl.remove t.tbl k;
        Obs.incr m_invalidations;
        Obs.set m_size (float_of_int (Hashtbl.length t.tbl))
      end)
