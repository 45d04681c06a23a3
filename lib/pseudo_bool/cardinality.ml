open Qca_sat

(* Sinz 2005 sequential counter: registers r.(i).(j) ⇔ at least j+1 of
   the first i+1 literals are true. The registers are non-decision
   variables (each clause holds at most one positive one), so the
   search branches only on [lits]. *)
let at_most s lits k =
  if k < 0 then Solver.add_clause s []
  else begin
    let lits = Array.of_list lits in
    let n = Array.length lits in
    if n > k then begin
      let r = Array.init n (fun _ -> Array.init k (fun _ -> Solver.new_var ~decision:false s)) in
      for i = 0 to n - 1 do
        if i > 0 then begin
          for j = 0 to k - 1 do
            (* carry: r_{i-1,j} → r_{i,j} *)
            Solver.add_clause s [ Lit.neg_of_var r.(i - 1).(j); Lit.pos r.(i).(j) ]
          done
        end;
        if k > 0 then
          (* x_i → r_{i,0} *)
          Solver.add_clause s [ Lit.negate lits.(i); Lit.pos r.(i).(0) ];
        if i > 0 then begin
          for j = 1 to k - 1 do
            (* x_i ∧ r_{i-1,j-1} → r_{i,j} *)
            Solver.add_clause s
              [ Lit.negate lits.(i); Lit.neg_of_var r.(i - 1).(j - 1); Lit.pos r.(i).(j) ]
          done;
          (* overflow: x_i ∧ r_{i-1,k-1} → ⊥ *)
          if k > 0 then
            Solver.add_clause s [ Lit.negate lits.(i); Lit.neg_of_var r.(i - 1).(k - 1) ]
          else Solver.add_clause s [ Lit.negate lits.(i) ]
        end
        else if k = 0 then Solver.add_clause s [ Lit.negate lits.(i) ]
      done
    end
  end

let at_least s lits k =
  let n = List.length lits in
  if k > n then Solver.add_clause s []
  else if k > 0 then at_most s (List.map Lit.negate lits) (n - k)

let at_most_one_pairwise s lits =
  let rec pairs = function
    | [] -> ()
    | l :: rest ->
      List.iter (fun l' -> Solver.add_clause s [ Lit.negate l; Lit.negate l' ]) rest;
      pairs rest
  in
  pairs lits

let exactly_one s lits =
  Solver.add_clause s lits;
  at_most_one_pairwise s lits
