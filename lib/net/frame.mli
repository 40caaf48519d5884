(** Checksummed, length-prefixed frame I/O over file descriptors.

    Every byte exchanged by the socket transport — peer links, source
    queries, child result pipes — travels in one of these frames: the
    {!Dr_core.Wire.Frame} header (magic, big-endian payload length, payload
    CRC-32) followed by the payload. Reads block until the full frame has
    arrived, retry transparently on [EINTR], and raise [End_of_file] on a
    connection closed mid-frame.

    Corruption surfaces as a {e typed} error, never as garbage handed to
    [Marshal]: a frame whose checksum fails raises {!Corrupt} after the
    frame has been consumed (the stream is still in sync — skip it and keep
    reading), while a header whose magic or length cannot be trusted raises
    {!Desync} before anything is allocated (the connection is lost). *)

exception Corrupt of string
(** Well-framed payload with a CRC mismatch. Recoverable: the frame was
    fully consumed, the next read starts at a frame boundary. *)

exception Desync of string
(** Bad magic or a length outside the {!Dr_core.Wire.Frame.max_payload}
    bound — raised {e before} allocating the payload, so a hostile 4-GB
    length cannot provoke the allocation. The stream position is unknown;
    treat the connection as dead. *)

val send_bytes : Unix.file_descr -> bytes -> unit
val recv_bytes : Unix.file_descr -> bytes

val send_corrupted : Unix.file_descr -> bytes -> unit
(** Fault injection: transmit a frame whose header is intact (correct
    length, CRC of the {e intended} payload) but whose payload has a bit
    flipped, so the receiver reads a well-framed message, detects the
    mismatch and raises {!Corrupt} — framing never desynchronizes. *)

val send_value : Unix.file_descr -> 'a -> unit
(** [Marshal] the value into one frame. *)

val recv_value : Unix.file_descr -> 'a
(** Unmarshal one frame. As with [Marshal.from_bytes] the result type is
    trusted, not checked — only use on channels whose peer is this library
    (both ends of every connection here are). *)
