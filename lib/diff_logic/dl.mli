(** Difference-logic consistency checking.

    A conjunction of constraints [x − y ≤ k] over integer variables is
    satisfiable iff the constraint graph (edge [y → x] of weight [k])
    has no negative cycle. This module runs Bellman-Ford from a virtual
    source and either returns a satisfying assignment or the tags of
    the constraints forming a negative cycle, a witness that the system
    is infeasible. [Model.verify_schedule] uses it as a schedule oracle
    independent of the model's own longest-path code. *)

type 'tag constr = { x : int; y : int; k : int; tag : 'tag }
(** [x − y ≤ k]. Variables are indices in [0, num_vars). *)

type 'tag result =
  | Consistent of int array
      (** A satisfying assignment (one value per variable). *)
  | Negative_cycle of 'tag list
      (** Tags of a minimal inconsistent constraint cycle. *)

val check : num_vars:int -> 'tag constr list -> 'tag result
