type 'a t = {
  cap : int;
  q : 'a Queue.t;
  m : Mutex.t;
  not_empty : Condition.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Chan.create: capacity < 1";
  {
    cap = capacity;
    q = Queue.create ();
    m = Mutex.create ();
    not_empty = Condition.create ();
    closed = false;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let length t = locked t (fun () -> Queue.length t.q)

let try_push t x =
  locked t (fun () ->
      if t.closed || Queue.length t.q >= t.cap then false
      else begin
        Queue.push x t.q;
        Condition.signal t.not_empty;
        true
      end)

let pop t =
  locked t (fun () ->
      let rec go () =
        match Queue.take_opt t.q with
        | None when not t.closed ->
          Condition.wait t.not_empty t.m;
          go ()
        | r -> r
      in
      go ())

let close t =
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        Condition.broadcast t.not_empty
      end)
