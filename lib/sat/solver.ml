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

module Ring = Qca_obs.Ring

(* Flight-recorder kinds (interned once; [Ring.record] is hot-safe).
   Payload words are documented in DESIGN.md section 7.9. *)
let k_conflicts = Ring.kind "sat.conflicts"
let k_restart = Ring.kind "sat.restart"
let k_stop = Ring.kind "sat.stop"

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
  (* var -> branched on. Non-decision variables never enter the heap;
     [solve] answers Sat with them unassigned, and the model reads them
     as false (see [add_clause] for why that completion is a model). *)
  mutable decision : bool array;
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
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable n_learnt : int;
  mutable n_deleted : int;
  mutable n_minimized : int;
  mutable n_gcs : int;
  mutable lbd_sum : int;
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
    decision = Array.make initial_cap true;
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
    proof_on = false;
    proof_buf = [||];
    proof_len = 0;
    ok = true;
    has_model = false;
    core = [];
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
    n_restarts = 0;
    n_learnt = 0;
    n_deleted = 0;
    n_minimized = 0;
    n_gcs = 0;
    lbd_sum = 0;
  }

let num_vars t = t.nvars
let num_clauses t = Vec.length t.clauses

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
   the period in conflicts, any other value means the default period.
   Read once at module initialization, not lazily: solvers on several
   domains (pool or serve workers) would otherwise race to force it,
   and a lazy value forced concurrently raises
   [CamlinternalLazy.Undefined]. *)

let audit_period =
  match Sys.getenv_opt "QCA_AUDIT" with
  | None | Some "" | Some "0" -> 0
  | Some v -> (
    match int_of_string_opt v with Some n when n > 1 -> n | _ -> 256)

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
    t.trail <- copy_ints t.trail 0;
    t.hheap <- copy_ints t.hheap 0;
    t.hindex <- copy_ints t.hindex (-1);
    let hact = Array.make cap 0.0 in
    Array.blit t.hact 0 hact 0 old;
    t.hact <- hact;
    t.decision <- copy_arr t.decision true;
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

let new_var ?(decision = true) t =
  let v = t.nvars in
  t.nvars <- v + 1;
  grow_arrays t t.nvars;
  t.decision.(v) <- decision;
  if decision then heap_insert t v;
  v

let is_decision t v = t.decision.(v)

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
    let not_p = p lxor 1 in
    let wd = Array.unsafe_get t.wdata not_p in
    let n = Array.unsafe_get t.wsize not_p in
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
        if Array.unsafe_get ad (cr + hdr) = not_p then begin
          Array.unsafe_set ad (cr + hdr) (Array.unsafe_get ad (cr + hdr + 1));
          Array.unsafe_set ad (cr + hdr + 1) not_p
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
            Array.unsafe_set ad !k not_p;
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
    Array.unsafe_set t.wsize not_p !j
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
      if vsids && Array.unsafe_get t.decision v then heap_insert t v
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

(* Raises on a literal over a variable {!new_var} never made. Runs
   before [add_clause] touches anything, so a rejected clause leaves the
   solver as it was. A top-level recursion, so the per-clause call
   allocates no closure. *)
let rec check_vars t = function
  | [] -> ()
  | l :: rest ->
    if Lit.var l >= t.nvars then
      invalid_arg "Solver.add_clause: unknown variable";
    check_vars t rest

(* One pass over the literals into [t.astack]: dedupe and detect
   tautologies with the per-literal mark [tick], drop root-false
   literals. Returns the number of literals kept, or -1 when the clause
   is a tautology or already satisfied at the root. A top-level
   recursion, like [check_vars], so the per-clause call allocates
   nothing. *)
let rec dedup_lits t tick n = function
  | [] -> n
  | l :: rest ->
    if t.lmark.(l lxor 1) = tick then -1
    else if t.lmark.(l) = tick then dedup_lits t tick n rest
    else begin
      t.lmark.(l) <- tick;
      match lit_value_raw t l with
      | 1 -> -1
      | 0 -> dedup_lits t tick n rest
      | _ ->
        t.astack.(n) <- l;
        dedup_lits t tick (n + 1) rest
    end

(* [solve] answers Sat with the non-decision variables it left
   unassigned read as false. Propagation is then at a fixpoint, so an
   original clause not yet satisfied has at least two unassigned
   literals; false makes each negative one true, so only a clause whose
   unassigned literals are all positive and non-decision can stay
   false. A clause kept with two or more positive non-decision literals
   therefore turns them back into decision variables, and the false
   completion always satisfies every original clause. *)
let promote_positive_aux t n =
  let aux = ref 0 in
  for i = 0 to n - 1 do
    let l = t.astack.(i) in
    if l land 1 = 0 && not t.decision.(l lsr 1) then incr aux
  done;
  if !aux >= 2 then
    for i = 0 to n - 1 do
      let l = t.astack.(i) in
      let v = l lsr 1 in
      if l land 1 = 0 && not t.decision.(v) then begin
        t.decision.(v) <- true;
        heap_insert t v
      end
    done

let add_clause t lits =
  check_vars t lits;
  backtrack_to t 0;
  t.has_model <- false;
  if t.ok then begin
    t.lmark_tick <- t.lmark_tick + 1;
    match dedup_lits t t.lmark_tick 0 lits with
    | -1 -> ()
    | 0 ->
      t.ok <- false;
      proof_emit_empty t
    | 1 ->
      enqueue t t.astack.(0) no_reason;
      if propagate t >= 0 then begin
        t.ok <- false;
        proof_emit_empty t
      end
    | n ->
      promote_positive_aux t n;
      let cr = Arena.alloc_slice t.arena ~learnt:false t.astack n in
      Vec.push t.clauses cr;
      attach_clause t cr
  end

let pick_branch_var t =
  if t.opts.use_vsids then begin
    let rec pop () =
      let v = heap_pop t in
      if v < 0 then -1
      else if var_value t v < 0 then v
      else pop ()
    in
    pop ()
  end
  else begin
    let rec scan v =
      if v >= t.nvars then -1
      else if var_value t v < 0 && t.decision.(v) then v
      else scan (v + 1)
    in
    scan 0
  end

(* Decision polarity: the saved phase (progress saving) by default,
   the fixed [phase_init] when phase saving is ablated. *)
let[@inline] decide_polarity t v =
  if t.opts.use_phase_saving then t.phase.(v) else t.opts.phase_init

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
          if audit_period > 0 && t.n_conflicts mod audit_period = 0 then
            audit t
        end
        else if t.opts.use_restarts && !conflicts_until_restart <= 0 then begin
          t.n_restarts <- t.n_restarts + 1;
          Obs.incr m_restarts;
          Ring.record k_restart t.n_restarts t.n_conflicts
            (Vec.length t.learnts);
          conflicts_until_restart := t.opts.restart_base * next_luby ();
          backtrack_to t 0
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

let value t v =
  if not t.has_model then invalid_arg "Solver.value: no model";
  if v < 0 || v >= t.nvars then invalid_arg "Solver.value: unknown variable";
  t.assigns.(v) = 1

let lit_value t l = if Lit.sign l then value t (Lit.var l) else not (value t (Lit.var l))

let model t = Array.init t.nvars (fun v -> value t v)

let unsat_core t = t.core

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
  v_decision : bool array;
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
    v_decision = t.decision;
  }

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
  }
