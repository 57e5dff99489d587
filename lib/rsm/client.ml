(** Generic closed-loop client: keeps [cp] proposals outstanding against
    whatever leader the callbacks expose, re-proposing after [retry_ms]
    without progress (commands stuck at a deposed or stopped leader are
    abandoned and re-issued). Records the cumulative decided count over
    simulated time and the number of leader changes. *)

type callbacks = {
  now : unit -> float;
  decided : unit -> int;  (** monotone count of decided client commands *)
  leader : unit -> int option;
  propose_batch : leader:int -> first_id:int -> count:int -> int;
      (** returns how many proposals were accepted *)
  schedule : delay:float -> (unit -> unit) -> unit;
}

type t = {
  cb : callbacks;
  cp : int;
  poll_ms : float;
  retry_ms : float;
  series : Metrics.Series.t;
  mutable next_id : int;
  mutable in_flight : int;
  mutable last_decided : int;
  mutable last_progress : float;
  mutable last_leader : int option;
  mutable leader_changes : int;
  mutable running : bool;
  (* Client-visible command latency: submission times of in-flight commands
     in FIFO order. Commands decide in submission order under the closed
     loop, so each decide pops the oldest submission; abandoned commands are
     dropped without a sample. Stored run-length: one run per accepted
     [propose_batch] (its submit time and how many commands it holds) in a
     growable ring of [sub_times]/[sub_counts], so a poll's cost grows with
     the batches it retires, not with the commands in them. *)
  mutable sub_times : Float.Array.t;
  mutable sub_counts : int array;
  mutable sub_head : int;  (* slot of the oldest run *)
  mutable sub_runs : int;  (* runs in the ring *)
  mutable sub_cmds : int;  (* commands across all runs *)
  latency : Obs.Metric.Histogram.t;
}

let initial_runs = 16

(* Append a run of [count] commands submitted at [time], doubling the ring
   (oldest run first) when it is full. *)
let push_run c time count =
  let cap = Array.length c.sub_counts in
  if c.sub_runs = cap then begin
    let times = Float.Array.make (2 * cap) 0.0 in
    let counts = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      let j = (c.sub_head + i) land (cap - 1) in
      Float.Array.set times i (Float.Array.get c.sub_times j);
      counts.(i) <- c.sub_counts.(j)
    done;
    c.sub_times <- times;
    c.sub_counts <- counts;
    c.sub_head <- 0
  end;
  let slot = (c.sub_head + c.sub_runs) land (Array.length c.sub_counts - 1) in
  Float.Array.set c.sub_times slot time;
  c.sub_counts.(slot) <- count;
  c.sub_runs <- c.sub_runs + 1;
  c.sub_cmds <- c.sub_cmds + count

(* Retire the [k] oldest submitted commands decided at [time]: whole runs
   are popped, a partial one is shortened in place. *)
let retire c time k =
  let k = ref (min k c.sub_cmds) in
  c.sub_cmds <- c.sub_cmds - !k;
  while !k > 0 do
    let slot = c.sub_head in
    let run = c.sub_counts.(slot) in
    let take = min run !k in
    Obs.Metric.Histogram.observe_n c.latency
      (time -. Float.Array.get c.sub_times slot)
      take;
    if take = run then begin
      c.sub_head <- (slot + 1) land (Array.length c.sub_counts - 1);
      c.sub_runs <- c.sub_runs - 1
    end
    else c.sub_counts.(slot) <- run - take;
    k := !k - take
  done

let clear_runs c =
  c.sub_head <- 0;
  c.sub_runs <- 0;
  c.sub_cmds <- 0

let poll c =
  let time = c.cb.now () in
  let decided = c.cb.decided () in
  let newly = decided - c.last_decided in
  if newly > 0 then begin
    c.last_decided <- decided;
    c.in_flight <- max 0 (c.in_flight - newly);
    c.last_progress <- time;
    retire c time newly
  end;
  Metrics.Series.push c.series ~time ~count:decided;
  (* Count a leader change whenever a leader emerges that differs from the
     last known one (flapping through leaderless periods included). *)
  let lead = c.cb.leader () in
  (match (lead, c.last_leader) with
  | Some l, Some prev when not (Int.equal prev l) ->
      c.leader_changes <- c.leader_changes + 1;
      c.last_leader <- Some l
  | Some l, None -> c.last_leader <- Some l
  | Some _, Some _ | None, _ -> ());
  if c.in_flight > 0 && time -. c.last_progress > c.retry_ms then begin
    c.in_flight <- 0;
    c.last_progress <- time;
    clear_runs c
  end;
  if c.in_flight < c.cp then begin
    match lead with
    | None -> ()
    | Some leader ->
        let want = c.cp - c.in_flight in
        let got =
          c.cb.propose_batch ~leader ~first_id:c.next_id ~count:want
        in
        c.next_id <- c.next_id + got;
        c.in_flight <- c.in_flight + got;
        if got > 0 then push_run c time got
  end

let start ?(retry_ms = 200.0) ~poll_ms ~cp cb =
  let c =
    {
      cb;
      cp;
      poll_ms;
      retry_ms;
      series = Metrics.Series.create ();
      next_id = 0;
      in_flight = 0;
      last_decided = 0;
      last_progress = cb.now ();
      last_leader = None;
      leader_changes = 0;
      running = true;
      sub_times = Float.Array.make initial_runs 0.0;
      sub_counts = Array.make initial_runs 0;
      sub_head = 0;
      sub_runs = 0;
      sub_cmds = 0;
      latency = Obs.Metric.Histogram.create ();
    }
  in
  let rec loop () =
    cb.schedule ~delay:c.poll_ms (fun () ->
        if c.running then begin
          poll c;
          loop ()
        end)
  in
  loop ();
  c

let stop c = c.running <- false
let series c = c.series
let leader_changes c = c.leader_changes
let decided c = c.last_decided
let latency c = c.latency
let reset_latency c = Obs.Metric.Histogram.reset c.latency

(* ------------------------------------------------------------------ *)
(* Client-visible histories (the chaos campaign's linearizability       *)
(* oracle records these; lib/chaos checks them).                        *)
(* ------------------------------------------------------------------ *)

module History = struct
  type event =
    | Invoke of {
        client : int;
        op_id : int;
        node : int;  (** server the operation was submitted to *)
        op : Replog.Command.op;
      }
    | Response of { client : int; op_id : int; result : Replog.Kv.result }
    | Timeout of { client : int; op_id : int }
        (** The client gave up waiting; the operation stays pending forever
            (its effect may or may not materialise later). *)

  type entry = { h_time : float; h_event : event }

  type t = { mutable entries : entry array; mutable len : int }

  let create () = { entries = Array.make 256 { h_time = 0.0; h_event = Timeout { client = -1; op_id = -1 } }; len = 0 }

  let record t ~time event =
    if t.len = Array.length t.entries then begin
      let bigger = Array.make (2 * t.len) t.entries.(0) in
      Array.blit t.entries 0 bigger 0 t.len;
      t.entries <- bigger
    end;
    t.entries.(t.len) <- { h_time = time; h_event = event };
    t.len <- t.len + 1

  let length t = t.len

  (* Chronological: records are appended in simulated-time order. *)
  let events t = Array.to_list (Array.sub t.entries 0 t.len)

  let pp_op ppf (op : Replog.Command.op) =
    match op with
    | Replog.Command.Noop -> Format.fprintf ppf "noop"
    | Replog.Command.Kv_put (k, v) -> Format.fprintf ppf "put(%s=%s)" k v
    | Replog.Command.Kv_get k -> Format.fprintf ppf "get(%s)" k
    | Replog.Command.Kv_del k -> Format.fprintf ppf "del(%s)" k
    | Replog.Command.Blob n -> Format.fprintf ppf "blob(%dB)" n

  let pp_result ppf (r : Replog.Kv.result) =
    match r with
    | Replog.Kv.Ok_unit -> Format.fprintf ppf "ok"
    | Replog.Kv.Value None -> Format.fprintf ppf "nil"
    | Replog.Kv.Value (Some v) -> Format.fprintf ppf "%s" v

  let pp_event ppf = function
    | Invoke { client; op_id; node; op } ->
        Format.fprintf ppf "c%d #%d @%d invoke %a" client op_id node pp_op op
    | Response { client; op_id; result } ->
        Format.fprintf ppf "c%d #%d response %a" client op_id pp_result result
    | Timeout { client; op_id } ->
        Format.fprintf ppf "c%d #%d timeout" client op_id

  let pp ppf t =
    List.iter
      (fun e -> Format.fprintf ppf "[%8.1f] %a@." e.h_time pp_event e.h_event)
      (events t)
end

(* Closed-loop KV client: one outstanding operation, drawn from a private
   PRNG; invocation/response/timeout events go to a shared {!History}. The
   response to an operation is whatever the replicated KV state machine of
   the *submission* server returned when it applied the operation — the
   client-visible semantics a real server would provide. *)
module Kv = struct
  type callbacks = {
    kc_now : unit -> float;
    kc_choose_node : read:bool -> int option;
        (** where to submit the next operation ([None]: retry later) *)
    kc_submit : node:int -> Replog.Command.t -> bool;
    kc_result : node:int -> op_id:int -> Replog.Kv.result option;
        (** the apply-time result once [node] has applied [op_id] *)
    kc_schedule : delay:float -> (unit -> unit) -> unit;
    kc_next_id : unit -> int;  (** globally unique command ids *)
  }

  type t = {
    cb : callbacks;
    history : History.t;
    client : int;
    rng : Random.State.t;
    keys : int;
    timeout_ms : float;
    poll_ms : float;
    mutable pending : (int * int * float) option;  (* op_id, node, since *)
    mutable seq : int;
    mutable completed : int;
    mutable timed_out : int;
    mutable running : bool;
  }

  (* 45% put / 45% get / 10% del over a small key space, so concurrent
     clients collide on keys often enough to make the checker bite. Put
     values are globally unique, which lets a read be attributed to the
     exact write that produced it. *)
  let gen_op c =
    let key = "k" ^ string_of_int (Random.State.int c.rng c.keys) in
    let roll = Random.State.int c.rng 100 in
    c.seq <- c.seq + 1;
    if roll < 45 then
      Replog.Command.Kv_put (key, Printf.sprintf "c%d.%d" c.client c.seq)
    else if roll < 90 then Replog.Command.Kv_get key
    else Replog.Command.Kv_del key

  let poll c =
    let now = c.cb.kc_now () in
    (match c.pending with
    | Some (op_id, node, since) -> (
        match c.cb.kc_result ~node ~op_id with
        | Some result ->
            History.record c.history ~time:now
              (History.Response { client = c.client; op_id; result });
            if Obs.Trace.on () then
              Obs.Trace.emit ~node
                (Obs.Event.Chaos_response
                   {
                     client = c.client;
                     op_id;
                     result = Format.asprintf "%a" History.pp_result result;
                   });
            c.completed <- c.completed + 1;
            c.pending <- None
        | None ->
            if now -. since >= c.timeout_ms then begin
              History.record c.history ~time:now
                (History.Timeout { client = c.client; op_id });
              if Obs.Trace.on () then
                Obs.Trace.emit ~node
                  (Obs.Event.Chaos_timeout { client = c.client; op_id });
              c.timed_out <- c.timed_out + 1;
              c.pending <- None
            end)
    | None -> ());
    if Option.is_none c.pending then begin
      let op = gen_op c in
      let read =
        match op with
        | Replog.Command.Kv_get _ -> true
        | Replog.Command.Noop | Replog.Command.Kv_put _
        | Replog.Command.Kv_del _ | Replog.Command.Blob _ ->
            false
      in
      match c.cb.kc_choose_node ~read with
      | None -> ()
      | Some node ->
          let op_id = c.cb.kc_next_id () in
          if c.cb.kc_submit ~node (Replog.Command.make ~id:op_id op) then begin
            History.record c.history ~time:now
              (History.Invoke { client = c.client; op_id; node; op });
            if Obs.Trace.on () then
              Obs.Trace.emit ~node
                (Obs.Event.Chaos_invoke
                   {
                     client = c.client;
                     op_id;
                     op = Format.asprintf "%a" History.pp_op op;
                   });
            c.pending <- Some (op_id, node, now)
          end
    end

  let start ~history ~client ~rng ~keys ~timeout_ms ~poll_ms cb =
    let c =
      {
        cb;
        history;
        client;
        rng;
        keys;
        timeout_ms;
        poll_ms;
        pending = None;
        seq = 0;
        completed = 0;
        timed_out = 0;
        running = true;
      }
    in
    let rec loop () =
      cb.kc_schedule ~delay:c.poll_ms (fun () ->
          if c.running then begin
            poll c;
            loop ()
          end)
    in
    loop ();
    c

  let stop c = c.running <- false
  let completed c = c.completed
  let timed_out c = c.timed_out
end
