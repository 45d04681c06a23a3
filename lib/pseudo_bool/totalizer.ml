open Qca_sat

type linear = (Lit.t * int) list

let normalize terms =
  let step (acc, offset) (lit, w) =
    if w = 0 then (acc, offset)
    else if w > 0 then ((lit, w) :: acc, offset)
    else
      (* w·ℓ = w − w·(¬ℓ) = (−w)·(¬ℓ) + w *)
      ((Lit.negate lit, -w) :: acc, offset + w)
  in
  let acc, offset = List.fold_left step ([], 0) terms in
  (List.rev acc, offset)

(* Every variable an encoding introduces (node outputs, counter
   registers, assumption literals) is a non-decision variable: its
   value follows from the inputs by propagation, and the clauses below
   hold at most one positive auxiliary literal each, so the solver's
   false completion of the ones left unassigned is a model. The search
   branches only on the caller's input literals. *)
let aux s = Solver.new_var ~decision:false s

(* A node of the totalizer tree: a sorted list of (weight, literal)
   outputs, each literal meaning "the subtree sum is ≥ weight". Sums are
   clamped at [cap]. When a node would carry more than [max_out]
   distinct weights, the set is thinned and implication targets are
   rounded DOWN to the nearest kept weight — this only weakens the
   upward implications (sum ≥ w ⟹ output at some w' ≤ w), preserving
   the soundness direction needed for branch-and-bound pruning. *)
type node = (int * Lit.t) list

let thin ~max_out weights =
  let arr = Array.of_list weights in
  let n = Array.length arr in
  if n <= max_out then weights
  else begin
    (* keep an evenly spaced subset, always including the smallest and
       the largest (the largest is the clamp target for the marker);
       the weights are distinct, so marking indices marks weights *)
    let kept = Bytes.make n '\000' in
    Bytes.set kept 0 '\001';
    Bytes.set kept (n - 1) '\001';
    for i = 1 to max_out - 2 do
      Bytes.set kept (i * (n - 1) / (max_out - 1)) '\001'
    done;
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if Bytes.get kept i <> '\000' then acc := arr.(i) :: !acc
    done;
    !acc
  end

(* Candidate output weights of a merge: both inputs' weights plus their
   pairwise sums, clamped at [cap]; only candidates reaching at least
   [keep_below] are returned (ascending). Dense merges (candidate count
   on the order of the cap) dedupe-and-sort through a flat seen-bitmap
   over [1..cap] in one O(|a|·|b| + cap) sweep. Sparse merges — huge
   cap, few candidates, the norm inside thinned trees where every node
   carries at most [max_out] outputs — pay neither the O(cap)
   memset/scan nor a sort: the candidates form |a|+2 rows that are
   already ascending ([a], [b], and [wa + b] for each [wa]; clamping
   and the [keep_below] cut keep them so), merged pairwise between two
   flat buffers with duplicates dropped, O(ncand · log |a|). *)
let merge_candidates ~cap ~keep_below (a : node) (b : node) =
  let na = List.length a and nb = List.length b in
  let ncand = (na * nb) + na + nb in
  if cap <= 1024 || cap <= 4 * ncand then begin
    let seen = Bytes.make (cap + 1) '\000' in
    let add w =
      if w > 0 then Bytes.unsafe_set seen (if w < cap then w else cap) '\001'
    in
    List.iter (fun (w, _) -> add w) a;
    List.iter (fun (w, _) -> add w) b;
    List.iter (fun (wa, _) -> List.iter (fun (wb, _) -> add (wa + wb)) b) a;
    let acc = ref [] in
    for w = cap downto keep_below do
      if Bytes.unsafe_get seen w <> '\000' then acc := w :: !acc
    done;
    !acc
  end
  else begin
    (* Lay the rows out as runs of [src], each clamped, cut and
       deduplicated; run r is [src.(ends.(r-1)) .. src.(ends.(r) - 1)]. *)
    let src = ref (Array.make ncand 0) and dst = ref (Array.make ncand 0) in
    let ends = Array.make (na + 2) 0 in
    let runs = ref 0 and n = ref 0 in
    let row shift ws =
      let start = !n and buf = !src in
      List.iter
        (fun (w, _) ->
          let w = shift + w in
          let w = if w < cap then w else cap in
          if w > 0 && w >= keep_below && (!n = start || buf.(!n - 1) <> w)
          then begin
            buf.(!n) <- w;
            incr n
          end)
        ws;
      if !n > start then begin
        ends.(!runs) <- !n;
        incr runs
      end
    in
    row 0 a;
    row 0 b;
    List.iter (fun (wa, _) -> row wa b) a;
    (* merge adjacent runs pairwise, dropping duplicates, until one is
       left; [ends] is rewritten in place behind the read position *)
    while !runs > 1 do
      let x = !src and y = !dst in
      let out = ref 0 and r = ref 0 and merged = ref 0 in
      while !r < !runs do
        let lo = if !r = 0 then 0 else ends.(!r - 1) in
        let mid = ends.(!r) in
        let hi = if !r + 1 < !runs then ends.(!r + 1) else mid in
        let i = ref lo and j = ref mid in
        while !i < mid || !j < hi do
          let w =
            if !j >= hi then x.(!i)
            else if !i >= mid then x.(!j)
            else min x.(!i) x.(!j)
          in
          if !i < mid && x.(!i) = w then incr i;
          if !j < hi && x.(!j) = w then incr j;
          y.(!out) <- w;
          incr out
        done;
        ends.(!merged) <- !out;
        incr merged;
        r := !r + 2
      done;
      runs := !merged;
      src := y;
      dst := x
    done;
    let len = if !runs = 0 then 0 else ends.(0) in
    let acc = ref [] in
    for k = len - 1 downto 0 do
      acc := !src.(k) :: !acc
    done;
    !acc
  end

let merge s ~cap ~max_out ?(keep_below = 1) (a : node) (b : node) : node =
  (* [keep_below] prunes the output range: only sums reaching at least
     [keep_below] (after clamping at [cap]) get output variables and
     implication clauses. The default 1 keeps everything; the root
     merge of a single-marker encoding passes [keep_below = cap], since
     downstream only the cap marker is ever consulted — sub-cap root
     outputs would be dead variables fed by dead clauses. *)
  let keep_below = min keep_below cap in
  let sorted = merge_candidates ~cap ~keep_below a b in
  let kept = thin ~max_out sorted in
  let outs = List.map (fun w -> (w, Lit.pos (aux s))) kept in
  let kept_arr = Array.of_list kept in
  (* outs is built positionally from kept, so the two arrays share
     indices and the binary search resolves straight to the literal *)
  let outs_arr = Array.of_list outs in
  let out_for w =
    (* largest kept weight ≤ clamped w (exists: callers only ask for
       w ≥ keep_below, and the smallest such candidate is kept) *)
    let w = min w cap in
    let lo = ref 0 and hi = ref (Array.length kept_arr - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if Array.unsafe_get kept_arr mid <= w then lo := mid else hi := mid - 1
    done;
    snd (Array.unsafe_get outs_arr !lo)
  in
  (* (a ≥ wa) ∧ (b ≥ wb) → (out ≥ wa+wb); the unit contributions are the
     wb = 0 / wa = 0 cases. Conclusions below [keep_below] are pruned
     with their outputs. *)
  List.iter
    (fun (wa, la) ->
      if wa >= keep_below then
        Solver.add_clause s [ Lit.negate la; out_for wa ])
    a;
  List.iter
    (fun (wb, lb) ->
      if wb >= keep_below then
        Solver.add_clause s [ Lit.negate lb; out_for wb ])
    b;
  List.iter
    (fun (wa, la) ->
      List.iter
        (fun (wb, lb) ->
          if wa + wb >= keep_below then
            Solver.add_clause s [ Lit.negate la; Lit.negate lb; out_for (wa + wb) ])
        b)
    a;
  outs

(* Unary counter (Sinz-style registers, implication direction only):
   output.(j) is forced true whenever at least j+1 of [lits] are true. *)
let count_outputs s lits max_count =
  let lits = Array.of_list lits in
  let n = Array.length lits in
  let k = min n max_count in
  if k = 0 then [||]
  else begin
    let r = Array.init n (fun _ -> Array.init k (fun _ -> aux s)) in
    for i = 0 to n - 1 do
      Solver.add_clause s [ Lit.negate lits.(i); Lit.pos r.(i).(0) ];
      if i > 0 then begin
        for j = 0 to k - 1 do
          Solver.add_clause s [ Lit.neg_of_var r.(i - 1).(j); Lit.pos r.(i).(j) ]
        done;
        for j = 1 to k - 1 do
          Solver.add_clause s
            [ Lit.negate lits.(i); Lit.neg_of_var r.(i - 1).(j - 1); Lit.pos r.(i).(j) ]
        done
      end
    done;
    Array.init k (fun j -> Lit.pos r.(n - 1).(j))
  end

(* Leaf node for a group of [count] literals sharing weight [w]: outputs
   (min(w·(j+1), cap), count ≥ j+1). Counts whose weight clamps at the
   cap collapse into a single output. *)
let group_node s ~cap ~max_out (w, lits) : node =
  (* the unary counter is also width-capped: undercounting beyond the
     cap only weakens the upward implications (admissible) *)
  let needed = min (min (List.length lits) (((cap - 1) / w) + 1)) max_out in
  let outs = count_outputs s lits needed in
  Array.to_list (Array.mapi (fun j l -> (min (w * (j + 1)) cap, l)) outs)
  |> List.fold_left
       (fun acc (wv, l) ->
         match acc with
         | (wv', _) :: _ when wv' = wv -> acc (* keep the weakest (first) *)
         | _ -> (wv, l) :: acc)
       []
  |> List.rev

(* [root_keep] applies only to the outermost merge (the root node):
   callers that consult nothing but the cap marker pass the cap so the
   root's sub-cap outputs — never read by anyone — are not encoded.
   Inner merges always keep everything; their outputs feed upward. *)
let rec build_nodes s ~cap ~max_out ?(root_keep = 1) = function
  | [] -> []
  | [ n ] -> n
  | nodes ->
    let rec split i left = function
      | rest when i = 0 -> (List.rev left, rest)
      | [] -> (List.rev left, [])
      | t :: rest -> split (i - 1) (t :: left) rest
    in
    let n = List.length nodes in
    let left, right = split (n / 2) [] nodes in
    merge s ~cap ~max_out ~keep_below:root_keep
      (build_nodes s ~cap ~max_out left)
      (build_nodes s ~cap ~max_out right)

(* Group equal weights (a unary counter per group is linear-size), then
   totalizer-merge the group nodes. *)
let build s ~cap ~max_out ?root_keep terms =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (l, w) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt groups w) in
      Hashtbl.replace groups w (l :: prev))
    terms;
  build_nodes s ~cap ~max_out ?root_keep
    (Hashtbl.fold
       (fun w lits acc -> group_node s ~cap ~max_out (w, lits) :: acc)
       groups [])

let marker_geq s ~max_out terms bound =
  if bound <= 0 then invalid_arg "Totalizer.marker_geq: bound must be ≥ 1";
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 terms in
  if total < bound then None
  else begin
    (* only the [bound] marker is consulted downstream, so the root
       node is pruned to it (see [build_nodes]) *)
    let outs = build s ~cap:bound ~max_out ~root_keep:bound terms in
    (* the clamp value [bound] is reachable (total ≥ bound) and always
       kept by [thin], so the marker exists at the root. *)
    let rec find = function
      | [] -> None
      | (w, l) :: rest -> if w = bound then Some l else find rest
    in
    find outs
  end

let assume_at_most_sized ~max_out s terms k =
  let pos_terms, offset = normalize terms in
  let k' = k - offset in
  (* Σ pos_terms ≤ k' *)
  if k' < 0 then
    invalid_arg "Totalizer.assume_at_most: bound below the minimum possible sum";
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 pos_terms in
  if total <= k' then None
  else begin
    match marker_geq s ~max_out pos_terms (k' + 1) with
    | None -> None
    | Some marker ->
      let a = Lit.pos (aux s) in
      (* a → ¬marker, i.e. a → sum ≤ k' *)
      Solver.add_clause s [ Lit.negate a; Lit.negate marker ];
      Some a
  end

let assume_at_most s terms k = assume_at_most_sized ~max_out:max_int s terms k

let assume_at_most_approx ?(resolution = 256) s terms k =
  assume_at_most_sized ~max_out:resolution s terms k

let enforce_at_most ?resolution s terms k =
  match assume_at_most_approx ?resolution s terms k with
  | None -> ()
  | Some a -> Solver.add_clause s [ a ]
  | exception Invalid_argument _ ->
    (* even the all-false assignment violates the cut: unsatisfiable *)
    Solver.add_clause s []
