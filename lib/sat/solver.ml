module Vec = Qca_util.Vec
module Fault = Qca_util.Fault
module Clock = Qca_util.Clock
module Obs = Qca_obs.Metrics

(* Solver telemetry (see DESIGN.md section 7.4). Names are interned
   once here; every update site is guarded by the registry's [live]
   flag, so with observability off the search pays one predictable
   branch per conflict and none per propagation. *)
let m_conflicts = Obs.counter "sat.conflicts"
let m_restarts = Obs.counter "sat.restarts"
let m_propagations = Obs.counter "sat.propagations"
let m_proof_events = Obs.counter "sat.proof.events"
let m_decisions = Obs.gauge "sat.decisions"
let m_learnt_db = Obs.gauge "sat.learnt_db"
let m_proof_words = Obs.gauge "sat.proof.words"
let m_arena_gcs = Obs.gauge "sat.arena_gcs"
let m_conflicts_per_sec = Obs.gauge "sat.conflicts_per_sec"
let m_lbd = Obs.histogram "sat.lbd"
let m_trail_depth = Obs.histogram "sat.trail_depth"

(* Inprocessing telemetry (DESIGN.md section 7.6); every counter is the
   cumulative work across all simplification passes of the process. *)
let m_simp_runs = Obs.counter "sat.simplify.runs"
let m_simp_subsumed = Obs.counter "sat.simplify.subsumed"
let m_simp_strengthened = Obs.counter "sat.simplify.strengthened"
let m_simp_eliminated = Obs.counter "sat.simplify.eliminated"
let m_simp_vivified = Obs.counter "sat.simplify.vivified"
let m_simp_failed_lits = Obs.counter "sat.simplify.failed_literals"

module Trace = Qca_obs.Trace
module Ring = Qca_obs.Ring

(* Flight-recorder kinds (interned once; [Ring.record] is hot-safe).
   Payload words are documented in DESIGN.md section 7.9. *)
let k_conflicts = Ring.kind "sat.conflicts"
let k_restart = Ring.kind "sat.restart"
let k_stop = Ring.kind "sat.stop"
let k_simplify = Ring.kind "sat.simplify"

(* Conflicts between telemetry syncs of the cheap gauges. *)
let telemetry_period = 256

type options = {
  use_vsids : bool;
  use_restarts : bool;
  use_clause_deletion : bool;
  use_minimization : bool;
  use_phase_saving : bool;
  var_decay : float;
  clause_decay : float;
  restart_base : int;
  phase_init : bool;  (* polarity of fresh vars / fixed polarity *)
  seed : int;  (* <> 0: occasional random decision polarity *)
  use_simplify : bool;  (* inprocessing: subsumption, BVE, probing, vivification *)
  simplify_period : int;  (* restarts between light inprocessing slices *)
}

let default_options =
  {
    use_vsids = true;
    use_restarts = true;
    use_clause_deletion = true;
    use_minimization = true;
    use_phase_saving = true;
    var_decay = 0.95;
    clause_decay = 0.999;
    restart_base = 64;
    phase_init = false;
    seed = 0;
    use_simplify = true;
    simplify_period = 8;
  }

type stop_reason =
  | Out_of_conflicts
  | Out_of_propagations
  | Deadline
  | Cancelled
  | Out_of_rounds
  | Unverified_schedule

let string_of_stop_reason = function
  | Out_of_conflicts -> "conflict budget exhausted"
  | Out_of_propagations -> "propagation budget exhausted"
  | Deadline -> "deadline exceeded"
  | Cancelled -> "cancelled"
  | Out_of_rounds -> "optimization round budget exhausted"
  | Unverified_schedule -> "schedule failed verification"

type result = Sat | Unsat | Unknown of stop_reason

(* Resource budget shared by a whole request: the caps and the deadline
   are fixed, the [*_spent] accounts accumulate across every solver call
   that is handed the same budget (the OMT driver re-solves many times
   against one budget). *)
type budget = {
  max_conflicts : int;
  max_propagations : int;
  deadline : float;  (* absolute Clock.now seconds; infinity = none *)
  cancelled : unit -> bool;
  fault : Fault.t;
  created : float;
  mutable conflicts_spent : int;
  mutable propagations_spent : int;
}

let no_budget =
  {
    max_conflicts = max_int;
    max_propagations = max_int;
    deadline = infinity;
    cancelled = (fun () -> false);
    fault = Fault.none;
    created = 0.0;
    conflicts_spent = 0;
    propagations_spent = 0;
  }
  [@@qca.domain_safe
    "spent counters are scratch: every limit is max_int / infinity, so a \
     racy increment can never trip a budget check"]

let budget ?timeout_ms ?(max_conflicts = max_int)
    ?(max_propagations = max_int) ?(cancelled = fun () -> false)
    ?(fault = Fault.none) () =
  let created = Clock.now () in
  let deadline =
    match timeout_ms with
    | None -> infinity
    | Some ms -> created +. (ms /. 1000.0)
  in
  {
    max_conflicts;
    max_propagations;
    deadline;
    cancelled;
    fault;
    created;
    conflicts_spent = 0;
    propagations_spent = 0;
  }

(* Caps / deadline / cancellation only — fault plans are consulted at
   their sites, not here, so a status poll never advances them. *)
let budget_status b =
  if b.conflicts_spent > b.max_conflicts then Some Out_of_conflicts
  else if b.propagations_spent > b.max_propagations then
    Some Out_of_propagations
  else if b.deadline < infinity && Clock.now () > b.deadline then Some Deadline
  else if b.cancelled () then Some Cancelled
  else None

let budget_elapsed_ms b =
  if b.created = 0.0 then 0.0 else Clock.ms_between b.created (Clock.now ())

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;
  deleted_clauses : int;
  minimized_literals : int;
  arena_gcs : int;
  avg_lbd : float;
  subsumed_clauses : int;
  strengthened_clauses : int;
  eliminated_vars : int;
  vivified_clauses : int;
  failed_literals : int;
  simplify_rounds : int;
}

(* No reason (decision / root-level fact). *)
let no_reason = -1

(* Clause header layout (see Arena): lits of clause [cr] start at
   [cr + 3]; [data.(cr) lsr 3] is the size. The inner loops below index
   the arena array directly instead of going through the Arena
   accessors — without flambda each accessor is an out-of-line call,
   which dominates the cost of a watched-literal visit. *)
let hdr = 3

type t = {
  opts : options;
  mutable nvars : int;
  mutable arena : Arena.t;
  clauses : int Vec.t;  (* crefs of problem clauses *)
  learnts : int Vec.t;  (* crefs of learnt clauses *)
  (* Watch lists: per literal, a flat array of (blocker, word) pairs
     where word = cref lsl 1 lor is_binary. For binary clauses the
     blocker is the other literal, so propagation never reads the
     arena. *)
  mutable wdata : int array array;
  mutable wsize : int array;
  mutable assigns : int array;  (* var -> -1 undef / 1 true / 0 false *)
  mutable phase : bool array;  (* saved phases *)
  mutable reason : int array;  (* var -> implying cref or no_reason *)
  mutable level : int array;
  mutable seen : bool array;
  mutable trail : int array;  (* literals, in assignment order *)
  mutable trail_size : int;
  mutable trail_lim : int array;  (* trail size at each decision level *)
  mutable trail_lim_size : int;
  mutable qhead : int;
  (* VSIDS order: binary max-heap over activities, ties toward the
     smaller variable index (deterministic, and equal to index order
     until conflicts separate the activities). *)
  mutable hheap : int array;  (* heap position -> var *)
  mutable hsize : int;
  mutable hindex : int array;  (* var -> heap position, -1 if absent *)
  mutable hact : float array;  (* var -> activity *)
  (* scratch for analyze / minimization / add_clause *)
  mutable learnt_buf : int array;
  mutable learnt_len : int;
  mutable astack : int array;
  mutable astack_size : int;
  mutable toclear : int array;
  mutable toclear_size : int;
  mutable lmark : int array;  (* lit -> tick, for add_clause dedup *)
  mutable lmark_tick : int;
  mutable lbd_stamp : int array;  (* level -> tick, for LBD counting *)
  mutable lbd_tick : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable rnd : int;  (* xorshift state; only advanced when seed <> 0 *)
  (* DRUP proof log (off by default): a flat int stream of events, each
     a header word [n lsl 1 lor is_delete] followed by n literals in the
     internal encoding. Grown amortized; never read by the solver
     itself — an independent checker (lib/check) replays it. *)
  mutable proof_on : bool;
  mutable proof_buf : int array;
  mutable proof_len : int;
  mutable ok : bool;
  mutable has_model : bool;
  mutable core : Lit.t list;
  (* Inprocessing state. The original-clause journal keeps every
     clause handed to {!add_clause} verbatim, as flat literals
     [orig_lits] plus per-clause end offsets [orig_ends] (ints only, so
     the journal holds no list cells alive and is written without the
     write barrier); {!export_problem} rebuilds the lists from it,
     independently of any simplification. [eliminated]/[elim_stack]
     carry bounded variable elimination (saved occurrence clauses, most
     recent entry first) for model extension and restore-on-mention;
     [frozen] vars are exempt from elimination (assumption vars and
     once-restored vars, so incremental callers do not thrash the
     stack). *)
  mutable orig_lits : int array;
  mutable orig_nlits : int;
  mutable orig_ends : int array;  (* clause i = orig_lits[ends(i-1), ends(i)) *)
  mutable orig_n : int;
  mutable eliminated : bool array;  (* var -> currently eliminated *)
  mutable frozen : bool array;  (* var -> never eliminate *)
  mutable elim_value : bool array;  (* extended model values (valid after Sat) *)
  mutable elim_stack : (int * int array array) list;
  mutable n_elim_live : int;
  mutable clauses_since_simp : int;
  mutable simplified_once : bool;
  mutable simplify_requested : bool;
      (* a deferred {!simplify} request: honored at the next restart
         boundary (the first proof that search is conflict-bound), so
         propagation-only instances never pay for a full pass *)
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable n_learnt : int;
  mutable n_deleted : int;
  mutable n_minimized : int;
  mutable n_gcs : int;
  mutable lbd_sum : int;
  mutable n_subsumed : int;
  mutable n_strengthened : int;
  mutable n_eliminated : int;
  mutable n_vivified : int;
  mutable n_failed_lits : int;
  mutable n_simplify_rounds : int;
}

let initial_cap = 64

let create ?(options = default_options) () =
  {
    opts = options;
    nvars = 0;
    arena = Arena.create ();
    clauses = Vec.create ~dummy:0 ();
    learnts = Vec.create ~dummy:0 ();
    wdata = Array.make (2 * initial_cap) [||];
    wsize = Array.make (2 * initial_cap) 0;
    assigns = Array.make initial_cap (-1);
    phase = Array.make initial_cap options.phase_init;
    reason = Array.make initial_cap no_reason;
    level = Array.make initial_cap 0;
    seen = Array.make initial_cap false;
    trail = Array.make initial_cap 0;
    trail_size = 0;
    trail_lim = Array.make (initial_cap + 1) 0;
    trail_lim_size = 0;
    qhead = 0;
    hheap = Array.make initial_cap 0;
    hsize = 0;
    hindex = Array.make initial_cap (-1);
    hact = Array.make initial_cap 0.0;
    learnt_buf = Array.make (initial_cap + 1) 0;
    learnt_len = 0;
    astack = Array.make (initial_cap + 1) 0;
    astack_size = 0;
    toclear = Array.make (initial_cap + 1) 0;
    toclear_size = 0;
    lmark = Array.make (2 * initial_cap) 0;
    lmark_tick = 0;
    lbd_stamp = Array.make (initial_cap + 1) (-1);
    lbd_tick = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    rnd = (if options.seed = 0 then 1 else options.seed land max_int lor 1);
    proof_on = false;
    proof_buf = [||];
    proof_len = 0;
    ok = true;
    has_model = false;
    core = [];
    orig_lits = Array.make 256 0;
    orig_nlits = 0;
    orig_ends = Array.make 64 0;
    orig_n = 0;
    eliminated = Array.make initial_cap false;
    frozen = Array.make initial_cap false;
    elim_value = Array.make initial_cap false;
    elim_stack = [];
    n_elim_live = 0;
    clauses_since_simp = 0;
    simplified_once = false;
    simplify_requested = false;
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
    n_restarts = 0;
    n_learnt = 0;
    n_deleted = 0;
    n_minimized = 0;
    n_gcs = 0;
    lbd_sum = 0;
    n_subsumed = 0;
    n_strengthened = 0;
    n_eliminated = 0;
    n_vivified = 0;
    n_failed_lits = 0;
    n_simplify_rounds = 0;
  }

let num_vars t = t.nvars
let num_clauses t = Vec.length t.clauses
let okay t = t.ok

(* --- DRUP proof logging --- *)

let enable_proof t = t.proof_on <- true
let proof_enabled t = t.proof_on
let proof_log t = Array.sub t.proof_buf 0 t.proof_len
let proof_words t = t.proof_len

(* A copy of [a] at least [need] long (doubling), zero-filled. *)
let grow_ints a need =
  let fresh = Array.make (max need (2 * Array.length a)) 0 in
  Arena.blit_ints a 0 fresh 0 (Array.length a);
  fresh

let proof_ensure t extra =
  if t.proof_len + extra > Array.length t.proof_buf then
    t.proof_buf <- grow_ints t.proof_buf (max 256 (t.proof_len + extra))

(* One event: header [n lsl 1 lor delete], then n literals copied from
   [src] starting at [off]. All emission sites guard on [proof_on]
   before touching any clause memory, so a disabled log costs one
   branch per site and the search is bit-identical. *)
let proof_emit t ~delete src off n =
  proof_ensure t (n + 1);
  t.proof_buf.(t.proof_len) <- (n lsl 1) lor (if delete then 1 else 0);
  Arena.blit_ints src off t.proof_buf (t.proof_len + 1) n;
  t.proof_len <- t.proof_len + n + 1;
  Obs.incr m_proof_events

let[@inline] proof_emit_empty t = if t.proof_on then proof_emit t ~delete:false [||] 0 0

let proof_fold ~init ~f proof =
  let acc = ref init in
  let i = ref 0 in
  let n = Array.length proof in
  while !i < n do
    let header = proof.(!i) in
    let len = header lsr 1 in
    let delete = header land 1 = 1 in
    if !i + 1 + len > n then invalid_arg "Solver.proof_fold: truncated proof";
    acc := f !acc ~delete (Array.sub proof (!i + 1) len);
    i := !i + 1 + len
  done;
  !acc

(* --- Invariant-audit hook ---

   The auditor itself lives in lib/check (it must not share code with
   the solver); the solver only exposes the hook and invokes it every
   [QCA_AUDIT] conflicts. QCA_AUDIT unset/0 disables, a value > 1 is
   the period in conflicts, any other value means the default period. *)

let audit_period =
  lazy
    (match Sys.getenv_opt "QCA_AUDIT" with
    | None | Some "" | Some "0" -> 0
    | Some v -> (
      match int_of_string_opt v with Some n when n > 1 -> n | _ -> 256))

let audit_hook : (t -> unit) option Atomic.t = Atomic.make None
let set_audit_hook f = Atomic.set audit_hook (Some f)

let audit t = match Atomic.get audit_hook with None -> () | Some f -> f t

let grow_arrays t n =
  let old = Array.length t.assigns in
  if n > old then begin
    let cap = max n (2 * old) in
    let copy_arr a fill =
      let fresh = Array.make cap fill in
      Array.blit a 0 fresh 0 old;
      fresh
    in
    let copy_ints a fill =
      let fresh = Array.make cap fill in
      Arena.blit_ints a 0 fresh 0 old;
      fresh
    in
    t.assigns <- copy_ints t.assigns (-1);
    t.phase <- copy_arr t.phase t.opts.phase_init;
    t.reason <- copy_ints t.reason no_reason;
    t.level <- copy_ints t.level 0;
    t.seen <- copy_arr t.seen false;
    t.eliminated <- copy_arr t.eliminated false;
    t.frozen <- copy_arr t.frozen false;
    t.elim_value <- copy_arr t.elim_value false;
    t.trail <- copy_ints t.trail 0;
    t.hheap <- copy_ints t.hheap 0;
    t.hindex <- copy_ints t.hindex (-1);
    let hact = Array.make cap 0.0 in
    Array.blit t.hact 0 hact 0 old;
    t.hact <- hact;
    let copy_plus a fill =
      (* [solve] may have grown these beyond cap+1 for assumption
         levels; never shrink *)
      let fresh = Array.make (max (cap + 1) (Array.length a)) fill in
      Arena.blit_ints a 0 fresh 0 (Array.length a);
      fresh
    in
    t.trail_lim <- copy_plus t.trail_lim 0;
    t.learnt_buf <- copy_plus t.learnt_buf 0;
    t.astack <- copy_plus t.astack 0;
    t.toclear <- copy_plus t.toclear 0;
    t.lbd_stamp <- copy_plus t.lbd_stamp (-1);
    let oldw = Array.length t.wsize in
    let wdata = Array.make (2 * cap) [||] in
    Array.blit t.wdata 0 wdata 0 oldw;
    t.wdata <- wdata;
    let wsize = Array.make (2 * cap) 0 in
    Arena.blit_ints t.wsize 0 wsize 0 oldw;
    t.wsize <- wsize;
    let lmark = Array.make (2 * cap) 0 in
    Arena.blit_ints t.lmark 0 lmark 0 (Array.length t.lmark);
    t.lmark <- lmark
  end

(* --- VSIDS heap (inlined; see Heap for the standalone variant) --- *)

let[@inline] heap_before t vi vj =
  let ai = Array.unsafe_get t.hact vi and aj = Array.unsafe_get t.hact vj in
  ai > aj || (ai = aj && vi < vj)

let rec heap_sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    let v = Array.unsafe_get t.hheap i
    and p = Array.unsafe_get t.hheap parent in
    if heap_before t v p then begin
      Array.unsafe_set t.hheap i p;
      Array.unsafe_set t.hheap parent v;
      Array.unsafe_set t.hindex p i;
      Array.unsafe_set t.hindex v parent;
      heap_sift_up t parent
    end
  end

let rec heap_sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.hsize && heap_before t t.hheap.(l) t.hheap.(!best) then best := l;
  if r < t.hsize && heap_before t t.hheap.(r) t.hheap.(!best) then best := r;
  if !best <> i then begin
    let b = !best in
    let v = t.hheap.(i) and w = t.hheap.(b) in
    t.hheap.(i) <- w;
    t.hheap.(b) <- v;
    t.hindex.(w) <- i;
    t.hindex.(v) <- b;
    heap_sift_down t b
  end

let[@inline] heap_insert t v =
  if Array.unsafe_get t.hindex v < 0 then begin
    let i = t.hsize in
    Array.unsafe_set t.hheap i v;
    Array.unsafe_set t.hindex v i;
    t.hsize <- i + 1;
    heap_sift_up t i
  end

let heap_pop t =
  if t.hsize = 0 then -1
  else begin
    let v = t.hheap.(0) in
    let n = t.hsize - 1 in
    t.hsize <- n;
    if n > 0 then begin
      let w = t.hheap.(n) in
      t.hheap.(0) <- w;
      t.hindex.(w) <- 0;
      heap_sift_down t 0
    end;
    t.hindex.(v) <- -1;
    v
  end

(* Remove a variable from the order (variable elimination): move the
   last heap entry into its slot and restore the heap property in both
   directions. *)
let heap_remove t v =
  let i = t.hindex.(v) in
  if i >= 0 then begin
    t.hindex.(v) <- -1;
    let n = t.hsize - 1 in
    t.hsize <- n;
    if i < n then begin
      let w = t.hheap.(n) in
      t.hheap.(i) <- w;
      t.hindex.(w) <- i;
      heap_sift_down t i;
      heap_sift_up t t.hindex.(w)
    end
  end

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  grow_arrays t t.nvars;
  heap_insert t v;
  v

(* -1 undef / 1 true / 0 false *)
let[@inline] var_value t v = t.assigns.(v)

let[@inline] lit_value_raw t l =
  let a = Array.unsafe_get t.assigns (l lsr 1) in
  if a < 0 then -1 else a lxor (l land 1)

let[@inline] decision_level t = t.trail_lim_size

let[@inline] new_level t =
  Array.unsafe_set t.trail_lim t.trail_lim_size t.trail_size;
  t.trail_lim_size <- t.trail_lim_size + 1

let[@inline] enqueue t l reason =
  let v = l lsr 1 in
  Array.unsafe_set t.assigns v (1 lxor (l land 1));
  Array.unsafe_set t.phase v (l land 1 = 0);
  Array.unsafe_set t.reason v reason;
  Array.unsafe_set t.level v t.trail_lim_size;
  Array.unsafe_set t.trail t.trail_size l;
  t.trail_size <- t.trail_size + 1

let push_watch_grow t l =
  let d = t.wdata.(l) in
  let d' = Array.make (max 4 (2 * Array.length d)) 0 in
  Arena.blit_ints d 0 d' 0 t.wsize.(l);
  t.wdata.(l) <- d';
  d'

let[@inline] push_watch t l blocker word =
  let n = Array.unsafe_get t.wsize l in
  let d = Array.unsafe_get t.wdata l in
  let d = if n + 2 > Array.length d then push_watch_grow t l else d in
  Array.unsafe_set d n blocker;
  Array.unsafe_set d (n + 1) word;
  Array.unsafe_set t.wsize l (n + 2)
  [@@qca.hot]

let attach_clause t cr =
  let ad = t.arena.Arena.data in
  let l0 = ad.(cr + hdr) and l1 = ad.(cr + hdr + 1) in
  let word = (cr lsl 1) lor (if ad.(cr) lsr 3 = 2 then 1 else 0) in
  push_watch t l0 l1 word;
  push_watch t l1 l0 word

(* Two-watched-literal propagation with blocker literals: each watcher
   caches one literal of its clause, and a satisfied blocker skips the
   clause without touching arena memory. Binary clauses are resolved
   entirely inside the watch list. Returns the conflicting cref or
   [no_reason]. *)
let propagate t =
  let confl = ref no_reason in
  let ad = t.arena.Arena.data in
  let nprops = ref 0 in
  while !confl < 0 && t.qhead < t.trail_size do
    let p = Array.unsafe_get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    incr nprops;
    let false_lit = p lxor 1 in
    let wd = Array.unsafe_get t.wdata false_lit in
    let n = Array.unsafe_get t.wsize false_lit in
    let i = ref 0 in
    let j = ref 0 in
    while !i < n do
      let blocker = Array.unsafe_get wd !i in
      let word = Array.unsafe_get wd (!i + 1) in
      i := !i + 2;
      if lit_value_raw t blocker = 1 then begin
        (* clause satisfied: keep the watcher, skip the clause *)
        Array.unsafe_set wd !j blocker;
        Array.unsafe_set wd (!j + 1) word;
        j := !j + 2
      end
      else if word land 1 = 1 then begin
        (* binary fast path: the blocker is the other literal *)
        Array.unsafe_set wd !j blocker;
        Array.unsafe_set wd (!j + 1) word;
        j := !j + 2;
        if lit_value_raw t blocker = 0 then begin
          confl := word lsr 1;
          Arena.blit_ints wd !i wd !j (n - !i);
          j := !j + (n - !i);
          i := n
        end
        else enqueue t blocker (word lsr 1)
      end
      else begin
        let cr = word lsr 1 in
        (* ensure the false literal is at position 1 *)
        if Array.unsafe_get ad (cr + hdr) = false_lit then begin
          Array.unsafe_set ad (cr + hdr) (Array.unsafe_get ad (cr + hdr + 1));
          Array.unsafe_set ad (cr + hdr + 1) false_lit
        end;
        let first = Array.unsafe_get ad (cr + hdr) in
        if first <> blocker && lit_value_raw t first = 1 then begin
          Array.unsafe_set wd !j first;
          Array.unsafe_set wd (!j + 1) word;
          j := !j + 2
        end
        else begin
          (* search a replacement watch *)
          let stop = cr + hdr + (Array.unsafe_get ad cr lsr 3) in
          let k = ref (cr + hdr + 2) in
          while !k < stop && lit_value_raw t (Array.unsafe_get ad !k) = 0 do
            incr k
          done;
          if !k < stop then begin
            (* move the watch; the other watched literal becomes the
               blocker on the new list *)
            let lk = Array.unsafe_get ad !k in
            Array.unsafe_set ad (cr + hdr + 1) lk;
            Array.unsafe_set ad !k false_lit;
            push_watch t lk first word
          end
          else begin
            Array.unsafe_set wd !j first;
            Array.unsafe_set wd (!j + 1) word;
            j := !j + 2;
            if lit_value_raw t first = 0 then begin
              (* conflict: keep the remaining watchers untouched *)
              confl := cr;
              Arena.blit_ints wd !i wd !j (n - !i);
              j := !j + (n - !i);
              i := n
            end
            else enqueue t first cr
          end
        end
      end
    done;
    Array.unsafe_set t.wsize false_lit !j
  done;
  t.n_propagations <- t.n_propagations + !nprops;
  if Atomic.get Obs.live then Obs.add m_propagations !nprops;
  !confl
  [@@qca.hot]

let var_bump t v =
  let a = Array.unsafe_get t.hact v +. t.var_inc in
  Array.unsafe_set t.hact v a;
  if Array.unsafe_get t.hindex v >= 0 then
    heap_sift_up t (Array.unsafe_get t.hindex v);
  if a > 1e100 then begin
    for i = 0 to Array.length t.hact - 1 do
      t.hact.(i) <- t.hact.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end

let var_decay_tick t = t.var_inc <- t.var_inc /. t.opts.var_decay

(* One unpack and one repack of the packed activity float (the Arena
   accessors would do three round-trips through boxed Int64s). *)
let clause_bump t cr =
  let ad = t.arena.Arena.data in
  let a =
    Int64.float_of_bits
      (Int64.shift_left (Int64.of_int (Array.unsafe_get ad (cr + 2))) 1)
    +. t.cla_inc
  in
  Array.unsafe_set ad (cr + 2)
    (Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float a) 1));
  if a > 1e20 then begin
    let arena = t.arena in
    Vec.iter
      (fun c -> Arena.set_activity arena c (Arena.activity arena c *. 1e-20))
      t.learnts;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let clause_decay_tick t = t.cla_inc <- t.cla_inc /. t.opts.clause_decay

let backtrack_to t lvl =
  if t.trail_lim_size > lvl then begin
    let bound = Array.unsafe_get t.trail_lim lvl in
    let vsids = t.opts.use_vsids in
    for i = t.trail_size - 1 downto bound do
      let v = Array.unsafe_get t.trail i lsr 1 in
      Array.unsafe_set t.assigns v (-1);
      Array.unsafe_set t.reason v no_reason;
      if vsids then heap_insert t v
    done;
    t.trail_size <- bound;
    t.trail_lim_size <- lvl;
    t.qhead <- bound
  end

(* The binary fast path enqueues without normalizing the clause, so a
   binary reason may still hold the implied literal at index 1. *)
let[@inline] fix_binary_reason t cr pivot_var =
  let ad = t.arena.Arena.data in
  if ad.(cr) lsr 3 = 2 && ad.(cr + hdr) lsr 1 <> pivot_var then begin
    let tmp = ad.(cr + hdr) in
    ad.(cr + hdr) <- ad.(cr + hdr + 1);
    ad.(cr + hdr + 1) <- tmp
  end

let[@inline] abstract_level t v = 1 lsl (Array.unsafe_get t.level v land 31)

exception Not_redundant

(* MiniSat's deep redundancy check (ccmin-mode 2): a learnt literal is
   redundant if every path from it through reasons ends in literals
   already present in the learnt clause. [ab_lvl] over-approximates the
   levels in the clause so most failures exit without the walk. *)
let lit_redundant t p ab_lvl =
  let ad = t.arena.Arena.data in
  t.astack.(0) <- p;
  t.astack_size <- 1;
  let top = t.toclear_size in
  try
    while t.astack_size > 0 do
      t.astack_size <- t.astack_size - 1;
      let q = Array.unsafe_get t.astack t.astack_size in
      let vq = q lsr 1 in
      let cr = Array.unsafe_get t.reason vq in
      let stop = cr + hdr + (Array.unsafe_get ad cr lsr 3) in
      for k = cr + hdr to stop - 1 do
        let l = Array.unsafe_get ad k in
        let v = l lsr 1 in
        if
          v <> vq
          && (not (Array.unsafe_get t.seen v))
          && Array.unsafe_get t.level v > 0
        then begin
          if Array.unsafe_get t.reason v >= 0 && abstract_level t v land ab_lvl <> 0
          then begin
            Array.unsafe_set t.seen v true;
            Array.unsafe_set t.astack t.astack_size l;
            t.astack_size <- t.astack_size + 1;
            Array.unsafe_set t.toclear t.toclear_size l;
            t.toclear_size <- t.toclear_size + 1
          end
          else begin
            (* a decision or an out-of-clause level: not redundant *)
            for m = top to t.toclear_size - 1 do
              t.seen.(t.toclear.(m) lsr 1) <- false
            done;
            t.toclear_size <- top;
            raise Not_redundant
          end
        end
      done
    done;
    true
  with Not_redundant -> false

(* First-UIP conflict analysis into [t.learnt_buf] (asserting literal
   first, second watch at index 1), with recursive learnt-clause
   minimization. Returns the backtrack level; the clause length is left
   in [t.learnt_len]. *)
let analyze t conflict =
  let ad = t.arena.Arena.data in
  let buf = t.learnt_buf in
  buf.(0) <- 0 (* room for the asserting literal *);
  let buf_len = ref 1 in
  let counter = ref 0 in
  let p = ref (-1) in
  let c = ref conflict in
  let index = ref (t.trail_size - 1) in
  let dl = t.trail_lim_size in
  let continue = ref true in
  while !continue do
    let cr = !c in
    if Array.unsafe_get ad cr land 4 <> 0 then clause_bump t cr;
    if !p >= 0 then fix_binary_reason t cr (!p lsr 1);
    let stop = cr + hdr + (Array.unsafe_get ad cr lsr 3) in
    for k = (if !p < 0 then cr + hdr else cr + hdr + 1) to stop - 1 do
      let q = Array.unsafe_get ad k in
      let v = q lsr 1 in
      if (not (Array.unsafe_get t.seen v)) && Array.unsafe_get t.level v > 0
      then begin
        Array.unsafe_set t.seen v true;
        var_bump t v;
        if Array.unsafe_get t.level v >= dl then incr counter
        else begin
          Array.unsafe_set buf !buf_len q;
          incr buf_len
        end
      end
    done;
    (* pick the next seen literal from the trail *)
    while not (Array.unsafe_get t.seen (Array.unsafe_get t.trail !index lsr 1)) do
      decr index
    done;
    p := Array.unsafe_get t.trail !index;
    decr index;
    let v = !p lsr 1 in
    Array.unsafe_set t.seen v false;
    decr counter;
    if !counter = 0 then continue := false else c := Array.unsafe_get t.reason v
  done;
  buf.(0) <- !p lxor 1;
  let len = !buf_len in
  (* minimization: drop literals implied by the rest of the clause *)
  Arena.blit_ints buf 0 t.toclear 0 len;
  t.toclear_size <- len;
  let keep =
    if t.opts.use_minimization && len > 1 then begin
      let ab_lvl = ref 0 in
      for i = 1 to len - 1 do
        ab_lvl := !ab_lvl lor abstract_level t (buf.(i) lsr 1)
      done;
      let j = ref 1 in
      for i = 1 to len - 1 do
        let q = buf.(i) in
        if t.reason.(q lsr 1) < 0 || not (lit_redundant t q !ab_lvl) then begin
          buf.(!j) <- q;
          incr j
        end
      done;
      !j
    end
    else len
  in
  t.n_minimized <- t.n_minimized + (len - keep);
  t.learnt_len <- keep;
  for i = 0 to t.toclear_size - 1 do
    t.seen.(t.toclear.(i) lsr 1) <- false
  done;
  (* move a literal of the backtrack level into the watch position *)
  if keep = 1 then 0
  else begin
    let best = ref 1 in
    for i = 2 to keep - 1 do
      if t.level.(buf.(i) lsr 1) > t.level.(buf.(!best) lsr 1) then best := i
    done;
    let tmp = buf.(1) in
    buf.(1) <- buf.(!best);
    buf.(!best) <- tmp;
    t.level.(buf.(1) lsr 1)
  end

(* A new assumption [failed] is already false: collect the subset of
   earlier assumptions (plus [failed] itself) that is jointly
   unsatisfiable with the clauses. *)
let analyze_final t failed =
  let core = ref [ failed ] in
  if t.trail_lim_size > 0 then begin
    let ad = t.arena.Arena.data in
    t.seen.(Lit.var failed) <- true;
    let bound = t.trail_lim.(0) in
    for i = t.trail_size - 1 downto bound do
      let l = t.trail.(i) in
      let v = l lsr 1 in
      if t.seen.(v) then begin
        let r = t.reason.(v) in
        if r < 0 then
          (* a decision: decisions below assumption levels are exactly
             the assumption literals as they were enqueued *)
          core := l :: !core
        else begin
          let stop = r + hdr + (ad.(r) lsr 3) in
          for k = r + hdr to stop - 1 do
            let q = ad.(k) in
            let vq = q lsr 1 in
            if vq <> v && t.level.(vq) > 0 then t.seen.(vq) <- true
          done
        end;
        t.seen.(v) <- false
      end
    done;
    t.seen.(Lit.var failed) <- false
  end;
  !core

(* Number of distinct decision levels in the learnt clause (the "glue"
   of Glucose); low-LBD clauses are the ones worth keeping. *)
let learnt_lbd t =
  t.lbd_tick <- t.lbd_tick + 1;
  let tick = t.lbd_tick in
  let n = ref 0 in
  for i = 0 to t.learnt_len - 1 do
    let lvl = t.level.(t.learnt_buf.(i) lsr 1) in
    if t.lbd_stamp.(lvl) <> tick then begin
      t.lbd_stamp.(lvl) <- tick;
      incr n
    end
  done;
  !n

(* Record [t.learnt_buf] as a learnt clause (backtracking already done;
   the asserting literal is at index 0, the second watch at index 1). *)
let record_learnt t =
  if t.proof_on && t.learnt_len > 0 then
    proof_emit t ~delete:false t.learnt_buf 0 t.learnt_len;
  match t.learnt_len with
  | 0 ->
    t.ok <- false;
    proof_emit_empty t
  | 1 ->
    let l = t.learnt_buf.(0) in
    if lit_value_raw t l = 0 then begin
      t.ok <- false;
      proof_emit_empty t
    end
    else if lit_value_raw t l = -1 then enqueue t l no_reason
  | len ->
    let lits = Array.sub t.learnt_buf 0 len in
    let cr = Arena.alloc t.arena ~learnt:true lits in
    let glue = learnt_lbd t in
    if Atomic.get Obs.live then Obs.observe m_lbd (float_of_int glue);
    Arena.set_lbd t.arena cr glue;
    t.lbd_sum <- t.lbd_sum + glue;
    Vec.push t.learnts cr;
    t.n_learnt <- t.n_learnt + 1;
    attach_clause t cr;
    clause_bump t cr;
    enqueue t lits.(0) cr

let locked t cr =
  let v = Lit.var (Arena.lit t.arena cr 0) in
  var_value t v >= 0 && t.reason.(v) = cr

(* Compact the arena: copy live clauses into a fresh one, forward every
   stored cref (clause lists, reasons of assigned variables), and rebuild
   the watch lists. Deleted clauses are dropped for good — propagation
   never has to skip tombstones. *)
let garbage_collect t =
  let a = t.arena in
  let live = Arena.used_words a - Arena.wasted_words a in
  let into = Arena.create ~capacity:(max 1024 live) () in
  for i = 0 to Vec.length t.clauses - 1 do
    Vec.set t.clauses i (Arena.reloc a ~into (Vec.get t.clauses i))
  done;
  for i = 0 to Vec.length t.learnts - 1 do
    Vec.set t.learnts i (Arena.reloc a ~into (Vec.get t.learnts i))
  done;
  for i = 0 to t.trail_size - 1 do
    let v = t.trail.(i) lsr 1 in
    if t.reason.(v) >= 0 then t.reason.(v) <- Arena.reloc a ~into t.reason.(v)
  done;
  t.arena <- into;
  Array.fill t.wsize 0 (Array.length t.wsize) 0;
  Vec.iter (fun cr -> attach_clause t cr) t.clauses;
  Vec.iter (fun cr -> attach_clause t cr) t.learnts;
  t.n_gcs <- t.n_gcs + 1

(* Halve the learnt database, keeping low-LBD / high-activity clauses
   (binary and "glue" clauses are never dropped), then garbage-collect
   the arena so the survivors are packed contiguously again. *)
let reduce_db t =
  let n = Vec.length t.learnts in
  if n > 10 then begin
    let a = t.arena in
    Vec.sort
      (fun c1 c2 ->
        let g = compare (Arena.lbd a c1) (Arena.lbd a c2) in
        if g <> 0 then g
        else Float.compare (Arena.activity a c2) (Arena.activity a c1))
      t.learnts;
    let deleted = ref 0 in
    for i = n / 2 to n - 1 do
      let cr = Vec.get t.learnts i in
      if (not (locked t cr)) && Arena.size a cr > 2 && Arena.lbd a cr > 2 then begin
        (* log the deletion before the header is marked: the literals
           stay in place until the GC below, but the proof must record
           the removal or the checker's database diverges *)
        if t.proof_on then
          proof_emit t ~delete:true a.Arena.data (cr + hdr) (Arena.size a cr);
        Arena.delete a cr;
        incr deleted
      end
    done;
    if !deleted > 0 then begin
      t.n_deleted <- t.n_deleted + !deleted;
      Vec.filter_in_place (fun cr -> not (Arena.deleted a cr)) t.learnts;
      garbage_collect t
    end
  end

(* Debug/ops entry points: let tests and the invariant fuzzer force a
   clause-database reduction or an arena compaction at an arbitrary
   quiescent point. *)
let force_reduce_db t = reduce_db t
let force_gc t = garbage_collect t

(* --- Inprocessing (DESIGN.md section 7.6) ---

   All of the machinery below runs at decision level 0 with unit
   propagation at fixpoint. Proof discipline: every clause the solver
   stores was emitted to the DRUP stream with exactly its stored
   literals (or is an original), so deletions always name a clause the
   checker holds; clauses removed by variable elimination are the one
   exception — they get no delete event, which keeps their later
   proof-free restoration sound (RUP is monotone in the database, so
   the checker holding extra clauses never hurts). *)

let simp_max_subsume_size = 30
let simp_occ_scan_cap = 400
let simp_bve_max_occ = 16
let simp_bve_max_resolvent = 32
let simp_probe_cap = 2048
let simp_probe_cap_light = 256
let simp_vivify_cap = 400
let simp_vivify_cap_light = 32
let simp_vivify_max_size = 40

(* Below this many problem clauses a full pass cannot pay for itself:
   tiny instances are decided by plain CDCL in less time than building
   the occurrence index. Keeps inprocessing out of the way of the
   incremental OMT loop, whose per-round instances are small. *)
let simp_min_clauses = 128

(* Remove the watcher word of [word] from the list of literal [l]
   (swap-with-last; no-op when absent). *)
let detach_watch t l word =
  let d = t.wdata.(l) in
  let n = t.wsize.(l) in
  let rec go i =
    if i < n then
      if d.(i + 1) = word then begin
        d.(i) <- d.(n - 2);
        d.(i + 1) <- d.(n - 1);
        t.wsize.(l) <- n - 2
      end
      else go (i + 2)
  in
  go 0

let detach_clause t cr =
  let ad = t.arena.Arena.data in
  let word = (cr lsl 1) lor (if ad.(cr) lsr 3 = 2 then 1 else 0) in
  detach_watch t ad.(cr + hdr) word;
  detach_watch t ad.(cr + hdr + 1) word

(* Detach + mark deleted; [emit] writes the DRUP deletion (with the
   clause's stored literals, before the header is stamped). *)
let delete_clause t ~emit cr =
  detach_clause t cr;
  if emit && t.proof_on then
    proof_emit t ~delete:true t.arena.Arena.data (cr + hdr)
      (Arena.size t.arena cr);
  Arena.delete t.arena cr

(* Root-level facts keep the cref of the clause that implied them; the
   simplifier deletes clauses freely, so those reasons must be dropped
   first (every analysis path guards on [level > 0], and the auditor
   accepts decision-style roots). *)
let clear_root_reasons t =
  for i = 0 to t.trail_size - 1 do
    t.reason.(t.trail.(i) lsr 1) <- no_reason
  done

(* Attach a derived clause: root-false literals are stripped (still RUP
   — the checker's closure holds every root fact) and root-satisfied
   clauses vanish without an event. Exactly the stored literals go to
   the proof, so a later deletion names a clause the checker has.
   Returns the cref, or -1 when nothing was stored (satisfied, unit, or
   empty). A unit is normally enqueued and propagated on the spot;
   with [defer] it is pushed there instead — variable elimination must
   not propagate while clauses of the pivot are still attached. *)
let add_derived ?defer t ~learnt lits =
  if Array.exists (fun l -> lit_value_raw t l = 1) lits then -1
  else begin
    let kept =
      Array.of_list
        (List.filter (fun l -> lit_value_raw t l <> 0) (Array.to_list lits))
    in
    let n = Array.length kept in
    if t.proof_on then proof_emit t ~delete:false kept 0 n;
    match n with
    | 0 ->
      t.ok <- false;
      -1
    | 1 ->
      (match defer with
      | Some pending -> Vec.push pending kept.(0)
      | None ->
        enqueue t kept.(0) no_reason;
        if propagate t >= 0 then begin
          t.ok <- false;
          proof_emit_empty t
        end);
      -1
    | _ ->
      let cr = Arena.alloc t.arena ~learnt kept in
      attach_clause t cr;
      cr
  end

(* Enqueue the deferred unit resolvents of one elimination (every
   clause of the pivot is detached by now, so propagation cannot touch
   the eliminated variable). *)
let flush_pending t pending =
  for i = 0 to Vec.length pending - 1 do
    if t.ok then begin
      let l = Vec.get pending i in
      match lit_value_raw t l with
      | 1 -> ()
      | 0 ->
        t.ok <- false;
        proof_emit_empty t
      | _ ->
        enqueue t l no_reason;
        if propagate t >= 0 then begin
          t.ok <- false;
          proof_emit_empty t
        end
    end
  done;
  Vec.clear pending

(* Re-attach a clause saved by variable elimination, proof-free: the
   checker never saw it leave, so it must come back with exactly its
   saved literals. Root-false literals are kept in the clause (only
   moved out of the watch slots); a clause reduced to one unassigned
   literal just enqueues it — the checker derives that unit by
   propagation over its own copy. *)
let reattach_saved t lits =
  if not (Array.exists (fun l -> lit_value_raw t l = 1) lits) then begin
    let arr = Array.copy lits in
    let n = Array.length arr in
    let j = ref 0 in
    for k = 0 to n - 1 do
      if lit_value_raw t arr.(k) <> 0 then begin
        let tmp = arr.(!j) in
        arr.(!j) <- arr.(k);
        arr.(k) <- tmp;
        incr j
      end
    done;
    match !j with
    | 0 ->
      t.ok <- false;
      proof_emit_empty t
    | 1 ->
      enqueue t arr.(0) no_reason;
      if propagate t >= 0 then begin
        t.ok <- false;
        proof_emit_empty t
      end
    | _ ->
      let cr = Arena.alloc t.arena ~learnt:false arr in
      Vec.push t.clauses cr;
      attach_clause t cr
  end

(* Pop the elimination stack down through [v]: entries above [v] were
   eliminated later, and their saved clauses never mention a variable
   that was already eliminated when they were saved — so restoring
   top-down keeps every live clause free of eliminated variables.
   Restored variables are frozen: an incremental caller that keeps
   mentioning a variable must not see it eliminated and restored on
   every solve. *)
let restore_var t v =
  while t.eliminated.(v) do
    match t.elim_stack with
    | [] -> assert false
    | (w, saved) :: rest ->
      t.elim_stack <- rest;
      t.eliminated.(w) <- false;
      t.frozen.(w) <- true;
      t.n_elim_live <- t.n_elim_live - 1;
      if t.opts.use_vsids && t.assigns.(w) < 0 then heap_insert t w;
      Array.iter (fun lits -> if t.ok then reattach_saved t lits) saved
  done

(* Assign every eliminated variable so the extended assignment
   satisfies its saved clauses (Sat has been reached: all live
   variables are assigned). Most recent elimination first — an entry's
   saved clauses only mention variables that were live at its
   elimination, i.e. later-eliminated ones, whose values are already
   extended. Default false; flip to true only when some saved clause
   with a positive occurrence is otherwise unsatisfied (the symmetric
   negative clause cannot also be otherwise-false, or the resolvent —
   present and satisfied — would be false too). *)
let extend_model t =
  List.iter
    (fun (v, saved) ->
      let pos = 2 * v in
      let holds l =
        let w = l lsr 1 in
        let b =
          if t.eliminated.(w) then t.elim_value.(w) else t.assigns.(w) = 1
        in
        if l land 1 = 0 then b else not b
      in
      t.elim_value.(v) <- false;
      Array.iter
        (fun lits ->
          if
            Simplify.mem pos lits
            && not (Array.exists (fun l -> l <> pos && holds l) lits)
          then t.elim_value.(v) <- true)
        saved)
    t.elim_stack

(* Stage 1: strip root-satisfied clauses and root-false literals.
   The stripped clause is added before the original is deleted, so its
   RUP check can still use the original. *)
let clean_stage t vec ~learnt =
  let a = t.arena in
  let ad = a.Arena.data in
  let i = ref 0 in
  while t.ok && !i < Vec.length vec do
    let cr = Vec.get vec !i in
    if not (Arena.deleted a cr) then begin
      let n = ad.(cr) lsr 3 in
      let sat = ref false and nfalse = ref 0 in
      for k = cr + hdr to cr + hdr + n - 1 do
        match lit_value_raw t ad.(k) with
        | 1 -> sat := true
        | 0 -> incr nfalse
        | _ -> ()
      done;
      if !sat then delete_clause t ~emit:true cr
      else if !nfalse > 0 then begin
        let old_lbd = if learnt then Arena.lbd a cr else 0 in
        let kept = Array.make (n - !nfalse) 0 in
        let j = ref 0 in
        for k = cr + hdr to cr + hdr + n - 1 do
          let l = ad.(k) in
          if lit_value_raw t l <> 0 then begin
            kept.(!j) <- l;
            incr j
          end
        done;
        let ncr = add_derived t ~learnt kept in
        delete_clause t ~emit:true cr;
        if ncr >= 0 then begin
          if learnt then Arena.set_lbd a ncr (min old_lbd (Arena.size a ncr));
          Vec.set vec !i ncr
        end
      end
    end;
    incr i
  done

(* Occurrence index over the live problem clauses: per literal, the
   crefs whose clause contains it, plus per-cref (signature, literals).
   Stale crefs (deleted by a later step) are skipped at scan time;
   completeness over live problem clauses is required for variable
   elimination to be sound, so every clause registers regardless of
   size. *)
type simp_index = {
  occ : int Vec.t array;  (* literal -> crefs *)
  info : (int, int * int array) Hashtbl.t;  (* cref -> signature, lits *)
}

let simp_register idx cr lits =
  Hashtbl.replace idx.info cr (Simplify.signature lits, lits);
  Array.iter (fun l -> Vec.push idx.occ.(l) cr) lits

let build_index t =
  let idx =
    {
      occ = Array.init (2 * t.nvars) (fun _ -> Vec.create ~dummy:0 ());
      info = Hashtbl.create (max 64 (Vec.length t.clauses));
    }
  in
  let a = t.arena in
  let ad = a.Arena.data in
  Vec.iter
    (fun cr ->
      if not (Arena.deleted a cr) then
        simp_register idx cr (Array.sub ad (cr + hdr) (ad.(cr) lsr 3)))
    t.clauses;
  idx

let[@inline] simp_live t idx cr =
  (not (Arena.deleted t.arena cr)) && Hashtbl.mem idx.info cr

(* Stage 2: subsumption and self-subsuming resolution (strengthening).
   Candidates come from the occurrence lists, pre-filtered by the Bloom
   signatures; strengthened clauses are re-added (new cref) and appended
   to the clause vector, so they get their own turn — total literal
   count strictly decreases, so the loop terminates. *)
let subsume_stage t idx =
  let a = t.arena in
  let i = ref 0 in
  while t.ok && !i < Vec.length t.clauses do
    let cr = Vec.get t.clauses !i in
    (if not (Arena.deleted a cr) then
       match Hashtbl.find_opt idx.info cr with
       | Some (sg, lits) when Array.length lits <= simp_max_subsume_size ->
         (* forward subsumption, seeded at the least-occurring literal *)
         let best = ref lits.(0) in
         Array.iter
           (fun l ->
             if Vec.length idx.occ.(l) < Vec.length idx.occ.(!best) then
               best := l)
           lits;
         let cands = idx.occ.(!best) in
         if Vec.length cands <= simp_occ_scan_cap then
           Vec.iter
             (fun d ->
               if d <> cr && simp_live t idx d then
                 match Hashtbl.find_opt idx.info d with
                 | Some (sgd, dlits)
                   when Array.length dlits >= Array.length lits
                        && Simplify.may_subsume sg sgd
                        && Simplify.subsumes lits dlits ->
                   delete_clause t ~emit:true d;
                   t.n_subsumed <- t.n_subsumed + 1
                 | _ -> ())
             cands;
         (* self-subsuming resolution: c with [p] flipped subsumes d *)
         if not (Arena.deleted a cr) then
           Array.iter
             (fun p ->
               let cands = idx.occ.(p lxor 1) in
               if Vec.length cands <= simp_occ_scan_cap then
                 Vec.iter
                   (fun d ->
                     if t.ok && d <> cr && simp_live t idx d then
                       match Hashtbl.find_opt idx.info d with
                       | Some (sgd, dlits)
                         when Array.length dlits >= Array.length lits
                              && Simplify.may_subsume sg sgd
                              && Simplify.subsumes_with_flip ~pivot:p lits
                                   dlits ->
                         let slits = Simplify.strengthen dlits (p lxor 1) in
                         let ncr = add_derived t ~learnt:false slits in
                         delete_clause t ~emit:true d;
                         if ncr >= 0 then begin
                           Vec.push t.clauses ncr;
                           simp_register idx ncr slits
                         end;
                         t.n_strengthened <- t.n_strengthened + 1
                       | _ -> ())
                   cands)
             lits
       | _ -> ());
    incr i
  done

(* Stage 3: bounded variable elimination. A variable with few
   occurrences is eliminated when its non-tautological resolvents are
   no more numerous than the clauses they replace. Resolvents are
   added first (their RUP checks resolve against the still-present
   parents), learnt clauses over the pivot are deleted (they are
   implied), and the occurrences move to the elimination stack with no
   proof events. Unit resolvents are deferred until every clause of
   the pivot is detached. *)
let bve_stage t idx pending =
  let a = t.arena in
  let live_occ l =
    let out = ref [] in
    Vec.iter (fun cr -> if simp_live t idx cr then out := cr :: !out) idx.occ.(l);
    !out
  in
  let v = ref 0 in
  while t.ok && !v < t.nvars do
    let x = !v in
    if
      t.assigns.(x) < 0
      && (not t.eliminated.(x))
      && (not t.frozen.(x))
      && Vec.length idx.occ.(2 * x) + Vec.length idx.occ.((2 * x) + 1)
         <= 8 * simp_bve_max_occ
    then begin
      let pos = live_occ (2 * x) and neg = live_occ ((2 * x) + 1) in
      let np = List.length pos and nn = List.length neg in
      if np + nn <= simp_bve_max_occ then begin
        let lits_of cr = snd (Hashtbl.find idx.info cr) in
        (* count non-tautological resolvents; bail out on growth *)
        let resolvents = ref [] in
        let count = ref 0 in
        let fits = ref true in
        List.iter
          (fun c ->
            if !fits then
              List.iter
                (fun d ->
                  if !fits then
                    match Simplify.resolve ~pivot_var:x (lits_of c) (lits_of d) with
                    | None -> ()
                    | Some r ->
                      incr count;
                      if
                        !count > np + nn
                        || Array.length r > simp_bve_max_resolvent
                      then fits := false
                      else resolvents := r :: !resolvents)
                neg)
          pos;
        if !fits then begin
          List.iter
            (fun r ->
              if t.ok then begin
                let ncr = add_derived ~defer:pending t ~learnt:false r in
                if ncr >= 0 then begin
                  Vec.push t.clauses ncr;
                  simp_register idx ncr r
                end
              end)
            !resolvents;
          (* learnt clauses over the pivot are implied: plain deletions *)
          Vec.iter
            (fun cr ->
              if not (Arena.deleted a cr) then begin
                let n = a.Arena.data.(cr) lsr 3 in
                let mentions = ref false in
                for k = cr + hdr to cr + hdr + n - 1 do
                  if a.Arena.data.(k) lsr 1 = x then mentions := true
                done;
                if !mentions then delete_clause t ~emit:true cr
              end)
            t.learnts;
          let saved =
            Array.of_list (List.map (fun cr -> lits_of cr) (pos @ neg))
          in
          List.iter
            (fun cr ->
              delete_clause t ~emit:false cr;
              Hashtbl.remove idx.info cr)
            (pos @ neg);
          t.elim_stack <- (x, saved) :: t.elim_stack;
          t.eliminated.(x) <- true;
          heap_remove t x;
          t.n_eliminated <- t.n_eliminated + 1;
          t.n_elim_live <- t.n_elim_live + 1;
          flush_pending t pending
        end
      end
    end;
    incr v
  done

(* Stage 4: failed-literal probing. Assert a literal that has binary
   watchers on its negation, propagate; a conflict makes its negation a
   root fact ([¬l] is RUP: the checker's propagation mirrors ours over a
   superset of our clauses). *)
let has_binary_watch t l =
  let d = t.wdata.(l) in
  let n = t.wsize.(l) in
  let rec go i = i < n && (d.(i + 1) land 1 = 1 || go (i + 2)) in
  go 0

let probe_stage t ~cap =
  let probes = ref 0 in
  let l = ref 0 in
  while t.ok && !probes < cap && !l < 2 * t.nvars do
    let p = !l in
    let x = p lsr 1 in
    if
      t.assigns.(x) < 0
      && (not t.eliminated.(x))
      && has_binary_watch t (p lxor 1)
    then begin
      incr probes;
      new_level t;
      enqueue t p no_reason;
      let confl = propagate t in
      backtrack_to t 0;
      if confl >= 0 then begin
        t.n_failed_lits <- t.n_failed_lits + 1;
        let u = [| p lxor 1 |] in
        if t.proof_on then proof_emit t ~delete:false u 0 1;
        match lit_value_raw t u.(0) with
        | 1 -> ()
        | 0 ->
          t.ok <- false;
          proof_emit_empty t
        | _ ->
          enqueue t u.(0) no_reason;
          if propagate t >= 0 then begin
            t.ok <- false;
            proof_emit_empty t
          end
      end
    end;
    incr l
  done

(* Stage 5: vivification. Assert the negations of a clause's literals
   one by one (with the clause itself detached, so it cannot feed its
   own propagation); a conflict or an implied-true literal truncates
   the clause, an implied-false literal drops out. Each shortened form
   is RUP under the asserted negations. *)
let vivify_one t vec i cr ~learnt =
  let a = t.arena in
  let n = Arena.size a cr in
  let lits = Array.init n (fun k -> a.Arena.data.(cr + hdr + k)) in
  let old_lbd = if learnt then Arena.lbd a cr else 0 in
  detach_clause t cr;
  let kept = Array.make n 0 in
  let nkept = ref 0 in
  let root_sat = ref false in
  new_level t;
  (try
     Array.iter
       (fun l ->
         match lit_value_raw t l with
         | 1 ->
           if t.level.(l lsr 1) = 0 then root_sat := true
           else begin
             kept.(!nkept) <- l;
             incr nkept
           end;
           raise Exit
         | 0 -> () (* implied false: drop the literal *)
         | _ ->
           enqueue t (l lxor 1) no_reason;
           if propagate t >= 0 then begin
             kept.(!nkept) <- l;
             incr nkept;
             raise Exit
           end
           else begin
             kept.(!nkept) <- l;
             incr nkept
           end)
       lits
   with Exit -> ());
  backtrack_to t 0;
  let m = !nkept in
  if !root_sat then begin
    delete_clause t ~emit:true cr;
    t.n_vivified <- t.n_vivified + 1
  end
  else if m < n then begin
    let ncr = add_derived t ~learnt (Array.sub kept 0 m) in
    delete_clause t ~emit:true cr;
    if ncr >= 0 then begin
      if learnt then Arena.set_lbd a ncr (min old_lbd (Arena.size a ncr));
      Vec.set vec i ncr
    end;
    t.n_vivified <- t.n_vivified + 1
  end
  else attach_clause t cr

let vivify_stage t vec ~learnt ~cap =
  let a = t.arena in
  let tried = ref 0 in
  let i = ref (Vec.length vec - 1) in
  (* newest first: recent learnts profit most *)
  while t.ok && !tried < cap && !i >= 0 do
    let cr = Vec.get vec !i in
    if not (Arena.deleted a cr) then begin
      let n = Arena.size a cr in
      if n >= 3 && n <= simp_vivify_max_size && (not learnt || Arena.lbd a cr <= 6)
      then begin
        incr tried;
        vivify_one t vec !i cr ~learnt
      end
    end;
    decr i
  done

let simp_flush_metrics t ~s0 =
  Ring.record k_simplify t.n_conflicts t.n_subsumed t.n_eliminated;
  if Atomic.get Obs.live then begin
    let sub0, str0, eli0, viv0, fl0 = s0 in
    Obs.incr m_simp_runs;
    let d c v = if v > 0 then Obs.add c v in
    d m_simp_subsumed (t.n_subsumed - sub0);
    d m_simp_strengthened (t.n_strengthened - str0);
    d m_simp_eliminated (t.n_eliminated - eli0);
    d m_simp_vivified (t.n_vivified - viv0);
    d m_simp_failed_lits (t.n_failed_lits - fl0)
  end

(* Full pass: clean, subsume/strengthen, eliminate, probe, vivify, then
   drop dead crefs and compact the arena. Runs at solver start (and
   again when enough clauses arrived since the last pass). *)
let simplify_full t =
  if t.ok && t.trail_lim_size = 0 then
    Trace.span "sat.simplify" (fun () ->
        if propagate t >= 0 then begin
          t.ok <- false;
          proof_emit_empty t
        end
        else begin
          let s0 =
            ( t.n_subsumed,
              t.n_strengthened,
              t.n_eliminated,
              t.n_vivified,
              t.n_failed_lits )
          in
          t.n_simplify_rounds <- t.n_simplify_rounds + 1;
          clear_root_reasons t;
          clean_stage t t.clauses ~learnt:false;
          if t.ok then clean_stage t t.learnts ~learnt:true;
          if t.ok then begin
            let idx = Trace.span "sat.simplify.index" (fun () -> build_index t) in
            Trace.span "sat.simplify.subsume" (fun () -> subsume_stage t idx);
            if t.ok then begin
              let pending = Vec.create ~dummy:0 () in
              Trace.span "sat.simplify.bve" (fun () -> bve_stage t idx pending)
            end
          end;
          if t.ok then
            Trace.span "sat.simplify.probe" (fun () ->
                probe_stage t ~cap:simp_probe_cap);
          if t.ok then
            Trace.span "sat.simplify.vivify" (fun () ->
                vivify_stage t t.clauses ~learnt:false ~cap:simp_vivify_cap;
                if t.ok then
                  vivify_stage t t.learnts ~learnt:true
                    ~cap:simp_vivify_cap_light);
          let a = t.arena in
          Vec.filter_in_place (fun cr -> not (Arena.deleted a cr)) t.clauses;
          Vec.filter_in_place (fun cr -> not (Arena.deleted a cr)) t.learnts;
          if t.ok && Arena.wasted_words t.arena > 0 then garbage_collect t;
          t.clauses_since_simp <- 0;
          t.simplified_once <- true;
          simp_flush_metrics t ~s0;
          let period = Lazy.force audit_period in
          if period > 0 then audit t
        end)

(* Light pass for restart boundaries: probing and a little learnt
   vivification only — no occurrence index, no elimination. *)
let inprocess_light t =
  if t.ok && t.trail_lim_size = 0 then
    Trace.span "sat.simplify.light" (fun () ->
        let s0 =
          ( t.n_subsumed,
            t.n_strengthened,
            t.n_eliminated,
            t.n_vivified,
            t.n_failed_lits )
        in
        t.n_simplify_rounds <- t.n_simplify_rounds + 1;
        clear_root_reasons t;
        probe_stage t ~cap:simp_probe_cap_light;
        if t.ok then
          vivify_stage t t.learnts ~learnt:true ~cap:simp_vivify_cap_light;
        let a = t.arena in
        Vec.filter_in_place (fun cr -> not (Arena.deleted a cr)) t.learnts;
        simp_flush_metrics t ~s0)

(* Preprocessing on demand. The default merely *requests* a full pass:
   it is honored at the next restart boundary, the first evidence the
   instance is conflict-bound — so an encode-dominated, propagation-only
   solve never pays for building the occurrence index (this is what the
   `totalizer-exact-simplify` bench row measures). [force] keeps the old
   eager behavior for callers that know the pass pays before any search.
   A no-op under [use_simplify = false] so an ablated solver stays raw
   no matter how it is driven. *)
let simplify ?(force = false) t =
  if t.opts.use_simplify then begin
    if force then begin
      backtrack_to t 0;
      t.has_model <- false;
      simplify_full t
    end
    else t.simplify_requested <- true
  end

(* Checks the variables and appends the pristine clause to the
   journal, for export_problem. The new literals only count once the
   whole clause has passed the check. A top-level recursion, so the
   per-clause call allocates no closure. *)
let rec journal_lits t n = function
  | [] -> n
  | l :: rest ->
    if Lit.var l >= t.nvars then
      invalid_arg "Solver.add_clause: unknown variable";
    if n = Array.length t.orig_lits then
      t.orig_lits <- grow_ints t.orig_lits (n + 1);
    Array.unsafe_set t.orig_lits n l;
    journal_lits t (n + 1) rest

let journal_clause t lits =
  let n = journal_lits t t.orig_nlits lits in
  if t.orig_n = Array.length t.orig_ends then
    t.orig_ends <- grow_ints t.orig_ends (t.orig_n + 1);
  t.orig_ends.(t.orig_n) <- n;
  t.orig_n <- t.orig_n + 1;
  t.orig_nlits <- n

let add_clause t lits =
  backtrack_to t 0;
  t.has_model <- false;
  if t.ok then begin
    journal_clause t lits;
    (* an incremental caller re-mentioning an eliminated variable brings
       it (and everything eliminated since) back first; the scan is
       skipped outright while nothing stands eliminated *)
    if t.n_elim_live > 0 then
      List.iter
        (fun l ->
          let v = Lit.var l in
          if t.eliminated.(v) then restore_var t v)
        lits;
    (* one pass over the literals: dedupe and detect tautologies with a
       per-literal mark, drop root-false literals, and notice clauses
       that are already satisfied at the root *)
    t.lmark_tick <- t.lmark_tick + 1;
    let tick = t.lmark_tick in
    let mark = t.lmark in
    let buf = t.astack in
    let n = ref 0 in
    let tautology = ref false in
    let already_sat = ref false in
    List.iter
      (fun l ->
        if not !tautology then begin
          if mark.(l lxor 1) = tick then tautology := true
          else if mark.(l) <> tick then begin
            mark.(l) <- tick;
            match lit_value_raw t l with
            | 1 -> already_sat := true
            | 0 -> ()
            | _ ->
              buf.(!n) <- l;
              incr n
          end
        end)
      lits;
    if t.ok && not (!tautology || !already_sat) then begin
      match !n with
      | 0 ->
        t.ok <- false;
        proof_emit_empty t
      | 1 ->
        enqueue t buf.(0) no_reason;
        if propagate t >= 0 then begin
          t.ok <- false;
          proof_emit_empty t
        end
      | n ->
        let cr = Arena.alloc_slice t.arena ~learnt:false buf n in
        Vec.push t.clauses cr;
        attach_clause t cr;
        t.clauses_since_simp <- t.clauses_since_simp + 1
    end
  end

let pick_branch_var t =
  if t.opts.use_vsids then begin
    let rec pop () =
      let v = heap_pop t in
      if v < 0 then -1
      else if var_value t v < 0 && not (Array.unsafe_get t.eliminated v) then v
      else pop ()
    in
    pop ()
  end
  else begin
    let rec scan v =
      if v >= t.nvars then -1
      else if var_value t v < 0 && not (Array.unsafe_get t.eliminated v) then v
      else scan (v + 1)
    in
    scan 0
  end

(* Decision polarity. Saved phase (progress saving) by default; fixed
   [phase_init] when phase saving is ablated. With a nonzero [seed] the
   portfolio seats additionally flip a random polarity about 1 decision
   in 32 (xorshift, deterministic per seed). [seed = 0] never touches
   [t.rnd], keeping the default path bit-identical. *)
let[@inline] next_rand t =
  let x = t.rnd in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  let x = if x = 0 then 1 else x in
  t.rnd <- x;
  x

let[@inline] decide_polarity t v =
  if t.opts.seed <> 0 && next_rand t land 31 = 0 then next_rand t land 1 = 0
  else if t.opts.use_phase_saving then t.phase.(v)
  else t.opts.phase_init

exception Answered of result

let solve ?(assumptions = []) ?(budget = no_budget) t =
  t.has_model <- false;
  t.core <- [];
  backtrack_to t 0;
  (* Budget accounting: spent counters accumulate across calls sharing
     one budget, so sync the deltas of this call's solver counters. *)
  let budgeted = budget != no_budget in
  let has_deadline = budget.deadline < infinity in
  let has_fault = not (Fault.is_none budget.fault) in
  let last_conf = ref t.n_conflicts and last_props = ref t.n_propagations in
  let sync_budget () =
    budget.conflicts_spent <-
      budget.conflicts_spent + (t.n_conflicts - !last_conf);
    budget.propagations_spent <-
      budget.propagations_spent + (t.n_propagations - !last_props);
    last_conf := t.n_conflicts;
    last_props := t.n_propagations
  in
  let check_stop () =
    sync_budget ();
    let stop =
      if budget.conflicts_spent > budget.max_conflicts then
        Some Out_of_conflicts
      else if budget.propagations_spent > budget.max_propagations then
        Some Out_of_propagations
      else if has_deadline && Clock.now () > budget.deadline then Some Deadline
      else if budget.cancelled () then Some Cancelled
      else if has_fault then
        match Fault.check budget.fault Fault.Sat_step with
        | Some Fault.Exhaust -> Some Out_of_conflicts
        | Some Fault.Cancel -> Some Cancelled
        | Some Fault.Spurious_conflict | None -> None
      else None
    in
    match stop with
    | Some reason ->
      let reason_ix =
        match reason with
        | Out_of_conflicts -> 0
        | Out_of_propagations -> 1
        | Deadline -> 2
        | Cancelled -> 3
        | Out_of_rounds -> 4
        | Unverified_schedule -> 5
      in
      Ring.record k_stop reason_ix t.n_conflicts t.n_propagations;
      (* leave the solver reusable: no partial assignment survives *)
      backtrack_to t 0;
      raise (Answered (Unknown reason))
    | None -> ()
  in
  let finish r =
    if budgeted then sync_budget ();
    r
  in
  if not t.ok then finish Unsat
  else if propagate t >= 0 then begin
    t.ok <- false;
    proof_emit_empty t;
    finish Unsat
  end
  else begin
    let assumptions = Array.of_list assumptions in
    (* assumption variables: restore them if eliminated and freeze them
       for good (so one incremental caller's selector is not eliminated
       on one solve and restored on the next), then simplify while the
       trail is still at the root *)
    Array.iter
      (fun a ->
        let v = Lit.var a in
        if t.eliminated.(v) then restore_var t v;
        t.frozen.(v) <- true)
      assumptions;
    if not t.ok then finish Unsat
    else begin
    (* decision levels are bounded by nvars plus one (possibly empty)
       level per assumption *)
    let lim_cap = t.nvars + Array.length assumptions + 1 in
    if lim_cap > Array.length t.trail_lim then begin
      let fresh = Array.make lim_cap 0 in
      Arena.blit_ints t.trail_lim 0 fresh 0 (Array.length t.trail_lim);
      t.trail_lim <- fresh
    end;
    if lim_cap > Array.length t.lbd_stamp then begin
      let fresh = Array.make lim_cap (-1) in
      Arena.blit_ints t.lbd_stamp 0 fresh 0 (Array.length t.lbd_stamp);
      t.lbd_stamp <- fresh
    end;
    (* Knuth's O(1) Luby generator: [v] runs 1 1 2 1 1 2 4 ... *)
    let luby_u = ref 1 and luby_v = ref 1 in
    let next_luby () =
      let r = !luby_v in
      if !luby_u land - !luby_u = !luby_v then begin
        incr luby_u;
        luby_v := 1
      end
      else luby_v := 2 * !luby_v;
      r
    in
    let conflicts_until_restart =
      ref (if t.opts.use_restarts then t.opts.restart_base * next_luby () else max_int)
    in
    (* Inprocessing is effort-gated: the first restart proves the
       instance is not decided by propagation alone, so the full pass
       runs there, then every [simplify_period] restarts — full again
       only when the clause DB grew substantially since the last pass,
       light (probe + learnt vivification) otherwise. Instances solved
       without conflicts never pay for simplification. *)
    let restarts_until_simp = ref (if t.simplified_once then max 1 t.opts.simplify_period else 1) in
    let learnt_limit = ref (max 1000 (2 * Vec.length t.clauses)) in
    try
      while true do
        if budgeted then check_stop ();
        let conflict = propagate t in
        if conflict >= 0 then begin
          t.n_conflicts <- t.n_conflicts + 1;
          decr conflicts_until_restart;
          if Atomic.get Ring.live && t.n_conflicts mod telemetry_period = 0
          then
            Ring.record k_conflicts t.n_conflicts t.trail_size
              (Vec.length t.learnts);
          if Atomic.get Obs.live then begin
            Obs.incr m_conflicts;
            Obs.observe m_trail_depth (float_of_int t.trail_size);
            if t.n_conflicts mod telemetry_period = 0 then begin
              Obs.set m_decisions (float_of_int t.n_decisions);
              Obs.set m_learnt_db (float_of_int (Vec.length t.learnts));
              Obs.set m_proof_words (float_of_int t.proof_len);
              Obs.set m_arena_gcs (float_of_int t.n_gcs);
              let el = Obs.elapsed_s () in
              if el > 0.0 then
                Obs.set m_conflicts_per_sec
                  (float_of_int (Obs.value m_conflicts) /. el)
            end
          end;
          if decision_level t = 0 then begin
            t.ok <- false;
            proof_emit_empty t;
            raise (Answered Unsat)
          end;
          let back_level = analyze t conflict in
          backtrack_to t back_level;
          record_learnt t;
          if not t.ok then raise (Answered Unsat);
          var_decay_tick t;
          clause_decay_tick t;
          let period = Lazy.force audit_period in
          if period > 0 && t.n_conflicts mod period = 0 then audit t
        end
        else if t.opts.use_restarts && !conflicts_until_restart <= 0 then begin
          t.n_restarts <- t.n_restarts + 1;
          Obs.incr m_restarts;
          Ring.record k_restart t.n_restarts t.n_conflicts
            (Vec.length t.learnts);
          conflicts_until_restart := t.opts.restart_base * next_luby ();
          backtrack_to t 0;
          if
            t.opts.use_simplify
            && (t.simplify_requested
               || Vec.length t.clauses >= simp_min_clauses)
          then begin
            decr restarts_until_simp;
            if t.simplify_requested || !restarts_until_simp <= 0 then begin
              let requested = t.simplify_requested in
              t.simplify_requested <- false;
              restarts_until_simp := max 1 t.opts.simplify_period;
              if
                requested
                || (not t.simplified_once)
                || t.clauses_since_simp >= Vec.length t.clauses / 2
              then simplify_full t
              else inprocess_light t;
              if not t.ok then raise (Answered Unsat)
            end
          end
        end
        else if t.opts.use_clause_deletion && Vec.length t.learnts > !learnt_limit
        then begin
          learnt_limit := !learnt_limit + (!learnt_limit / 2);
          reduce_db t
        end
        else if decision_level t < Array.length assumptions then begin
          (* assumption decisions come first *)
          let a = assumptions.(decision_level t) in
          match lit_value_raw t a with
          | 1 ->
            (* already true: open an empty decision level *)
            new_level t
          | 0 ->
            t.core <- analyze_final t a;
            raise (Answered Unsat)
          | _ ->
            new_level t;
            t.n_decisions <- t.n_decisions + 1;
            enqueue t a no_reason
        end
        else begin
          let v = pick_branch_var t in
          if v < 0 then begin
            if t.n_elim_live > 0 then extend_model t;
            t.has_model <- true;
            raise (Answered Sat)
          end
          else begin
            t.n_decisions <- t.n_decisions + 1;
            new_level t;
            enqueue t (Lit.make v (decide_polarity t v)) no_reason
          end
        end
      done;
      assert false
    with Answered r -> finish r
    end
  end

let value t v =
  if not t.has_model then invalid_arg "Solver.value: no model";
  if v < 0 || v >= t.nvars then invalid_arg "Solver.value: unknown variable";
  if t.eliminated.(v) then t.elim_value.(v) else t.assigns.(v) = 1

let lit_value t l = if Lit.sign l then value t (Lit.var l) else not (value t (Lit.var l))

let model t = Array.init t.nvars (fun v -> value t v)

let unsat_core t = t.core

let options t = t.opts

(* Problem snapshot for portfolio cloning: exactly the clauses the
   caller added, untouched by simplification or root-level rewriting
   (the importing seat re-normalizes and re-derives root facts itself).
   Learnt clauses are implied and deliberately not exported — each seat
   re-learns under its own configuration. An already-refuted solver
   exports one empty clause. *)
type problem = { p_nvars : int; p_clauses : Lit.t list list }

(* Journal clauses [start ..], rebuilt as fresh lists in addition
   order (each list back to front, so no reversal is needed). *)
let originals_since t start =
  let cls = ref [] in
  for i = t.orig_n - 1 downto max 0 start do
    let lo = if i = 0 then 0 else t.orig_ends.(i - 1) in
    let c = ref [] in
    for k = t.orig_ends.(i) - 1 downto lo do
      c := t.orig_lits.(k) :: !c
    done;
    cls := !c :: !cls
  done;
  !cls

let export_problem t =
  if not t.ok then { p_nvars = t.nvars; p_clauses = [ [] ] }
  else { p_nvars = t.nvars; p_clauses = originals_since t 0 }

let import_problem ?options ?(proof = false) p =
  let s = create ?options () in
  if proof then enable_proof s;
  for _ = 1 to p.p_nvars do ignore (new_var s) done;
  List.iter (fun c -> add_clause s c) p.p_clauses;
  s

(* Delta export for persistent clones: the journal is append-only, so
   (watermark, length) windows name exactly the clauses added between
   two points in time. A session syncs its seats by replaying the
   window ({!originals_since}) plus any new variables. *)
let num_originals t = t.orig_n

(* Read-only snapshot of the internal state for the invariant auditor
   (lib/check). Scalar fields are copies; the arrays are shared with the
   live solver — auditors must treat them as read-only. *)
type view = {
  v_nvars : int;
  v_use_vsids : bool;
  v_arena_data : int array;
  v_arena_used : int;
  v_arena_wasted : int;
  v_clauses : int array;
  v_learnts : int array;
  v_wdata : int array array;
  v_wsize : int array;
  v_assigns : int array;
  v_reason : int array;
  v_level : int array;
  v_trail : int array;
  v_trail_size : int;
  v_trail_lim : int array;
  v_trail_lim_size : int;
  v_qhead : int;
  v_hheap : int array;
  v_hsize : int;
  v_hindex : int array;
  v_hact : float array;
  v_eliminated : bool array;
}

let view t =
  {
    v_nvars = t.nvars;
    v_use_vsids = t.opts.use_vsids;
    v_arena_data = t.arena.Arena.data;
    v_arena_used = Arena.used_words t.arena;
    v_arena_wasted = Arena.wasted_words t.arena;
    v_clauses = Vec.to_array t.clauses;
    v_learnts = Vec.to_array t.learnts;
    v_wdata = t.wdata;
    v_wsize = t.wsize;
    v_assigns = t.assigns;
    v_reason = t.reason;
    v_level = t.level;
    v_trail = t.trail;
    v_trail_size = t.trail_size;
    v_trail_lim = t.trail_lim;
    v_trail_lim_size = t.trail_lim_size;
    v_qhead = t.qhead;
    v_hheap = t.hheap;
    v_hsize = t.hsize;
    v_hindex = t.hindex;
    v_hact = t.hact;
    v_eliminated = t.eliminated;
  }

(* For Check.Audit's model-reconstruction pass: the elimination stack,
   most recent entry first, with the saved occurrence clauses in the
   internal literal encoding (copies — the auditor may keep them). *)
let elimination_stack t =
  List.map (fun (v, cls) -> (v, Array.map Array.copy cls)) t.elim_stack

let stats t =
  {
    conflicts = t.n_conflicts;
    decisions = t.n_decisions;
    propagations = t.n_propagations;
    restarts = t.n_restarts;
    learnt_clauses = t.n_learnt;
    deleted_clauses = t.n_deleted;
    minimized_literals = t.n_minimized;
    arena_gcs = t.n_gcs;
    avg_lbd = (if t.n_learnt = 0 then 0.0 else float_of_int t.lbd_sum /. float_of_int t.n_learnt);
    subsumed_clauses = t.n_subsumed;
    strengthened_clauses = t.n_strengthened;
    eliminated_vars = t.n_eliminated;
    vivified_clauses = t.n_vivified;
    failed_literals = t.n_failed_lits;
    simplify_rounds = t.n_simplify_rounds;
  }
