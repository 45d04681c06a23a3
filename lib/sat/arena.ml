type t = {
  mutable data : int array;
  mutable used : int;
  mutable wasted : int;
}

type cref = int

let header_words = 3

(* [Array.blit] into an array in the major heap goes through
   [caml_modify] once per element, even when every element is an
   immediate int; a loop over a statically int-typed array compiles to
   plain loads and stores. Copies backwards when the ranges overlap
   with [dst] above [src], like [Array.blit]. *)
let blit_ints (src : int array) src_off (dst : int array) dst_off len =
  if
    len < 0 || src_off < 0 || dst_off < 0
    || src_off > Array.length src - len
    || dst_off > Array.length dst - len
  then invalid_arg "Arena.blit_ints";
  if src == dst && src_off < dst_off then
    for i = len - 1 downto 0 do
      Array.unsafe_set dst (dst_off + i) (Array.unsafe_get src (src_off + i))
    done
  else
    for i = 0 to len - 1 do
      Array.unsafe_set dst (dst_off + i) (Array.unsafe_get src (src_off + i))
    done

let create ?(capacity = 1024) () =
  { data = Array.make (max capacity 4) 0; used = 0; wasted = 0 }

let ensure t extra =
  if t.used + extra > Array.length t.data then begin
    let cap = max (t.used + extra) (2 * Array.length t.data) in
    let data = Array.make cap 0 in
    blit_ints t.data 0 data 0 t.used;
    t.data <- data
  end

(* header bits: 0 = reloced, 1 = deleted, 2 = learnt, 3.. = size *)

let alloc_slice t ~learnt lits n =
  ensure t (n + header_words);
  let c = t.used in
  t.data.(c) <- (n lsl 3) lor (if learnt then 4 else 0);
  t.data.(c + 1) <- 0;
  t.data.(c + 2) <- 0;
  blit_ints lits 0 t.data (c + header_words) n;
  t.used <- c + header_words + n;
  c
  [@@qca.hot]

let alloc t ~learnt lits = alloc_slice t ~learnt lits (Array.length lits)

let[@inline] size t c = Array.unsafe_get t.data c lsr 3
let[@inline] deleted t c = Array.unsafe_get t.data c land 2 <> 0
let[@inline] reloced t c = Array.unsafe_get t.data c land 1 <> 0

let delete t c =
  if not (deleted t c) then begin
    t.data.(c) <- t.data.(c) lor 2;
    t.wasted <- t.wasted + header_words + size t c
  end

let[@inline] lit t c i = Array.unsafe_get t.data (c + header_words + i)

(* Activity is stored as the float's bit pattern shifted right by one so
   it fits an OCaml 63-bit int; only the lowest mantissa bit is lost,
   which is irrelevant for an activity heuristic. *)
let[@inline] activity t c =
  Int64.float_of_bits (Int64.shift_left (Int64.of_int t.data.(c + 2)) 1)

let[@inline] set_activity t c a =
  t.data.(c + 2) <- Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float a) 1)

let[@inline] lbd t c = t.data.(c + 1)
let[@inline] set_lbd t c g = t.data.(c + 1) <- g

let used_words t = t.used
let wasted_words t = t.wasted

let reloc t ~into c =
  if reloced t c then t.data.(c + 1)
  else begin
    let n = size t c in
    ensure into (n + header_words);
    let c' = into.used in
    blit_ints t.data c into.data c' (n + header_words);
    into.used <- c' + header_words + n;
    (* leave a forwarding address behind *)
    t.data.(c) <- t.data.(c) lor 1;
    t.data.(c + 1) <- c';
    c'
  end
