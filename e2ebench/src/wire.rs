//! One pipelined loopback connection speaking the framed protocol.

use littletable_proto::{
    decode_response_frame, encode_request_frame, read_frame, write_frame, Request, Response,
};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};

pub struct Wire {
    pub stream: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Wire {
    pub fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect to the in-process server");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        let reader = BufReader::new(stream.try_clone().expect("clone socket"));
        Wire {
            stream,
            reader,
            next_id: 1,
        }
    }

    /// Encodes a request frame under the next id.
    pub fn encode(&mut self, req: &Request) -> (u64, Vec<u8>) {
        let id = self.next_id;
        self.next_id += 1;
        (id, encode_request_frame(id, req))
    }

    pub fn send_frame(&mut self, frame: &[u8]) {
        write_frame(&mut self.stream, frame).expect("write request frame");
    }

    /// Writes several frames with one system call.
    pub fn send_frames(&mut self, frames: &[Vec<u8>]) {
        let mut buf = Vec::new();
        for f in frames {
            write_frame(&mut buf, f).expect("frame into buffer");
        }
        self.stream.write_all(&buf).expect("write request frames");
    }

    /// Reads the next response; responses come back in send order.
    pub fn recv(&mut self) -> (u64, Response) {
        let payload = read_frame(&mut self.reader)
            .expect("read response frame")
            .expect("server closed the connection");
        decode_response_frame(&payload).expect("decode response frame")
    }

    /// One request, one response.
    pub fn call(&mut self, req: &Request) -> Response {
        let (id, frame) = self.encode(req);
        self.send_frame(&frame);
        let (got, resp) = self.recv();
        assert_eq!(got, id, "response out of order");
        resp
    }
}
